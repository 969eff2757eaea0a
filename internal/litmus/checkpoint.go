package litmus

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/tso"
)

// This file implements durable checkpoint/resume for the parallel
// engine: Options.Checkpoint periodically snapshots the exploration to
// disk, and Resume restarts a killed run from the last committed
// snapshot with results identical to an uninterrupted run.
//
// What a snapshot must capture, and why it is consistent:
//
//   - The visited set, as the keys the run already has. Every visited
//     state is one fixed-width record, key ‖ 4-byte pruned mask, where
//     key is what the visited table is keyed on: the 16-byte h1 ‖ h2
//     hash pair (the default), or under Options.Collapse the collapsed
//     tuple — the very record the table's spill segments hold, in
//     either mode (visited.go, appendRecord). Checkpointing therefore
//     selects no key mode and costs nothing until a snapshot is due.
//     Each stripe's resident slots serialize in table order; spilled
//     segments append verbatim. Resume re-inserts the records
//     (re-hashing a collapsed key, reading a hashed one back), so
//     nothing about the table's layout is part of the format — but the
//     hash pair is: changing tso.Machine.KeyPair orphans every hashed
//     file and must bump ckptVersion (testdata/*-hashed.lbmf fail
//     first). The key mode of a resumed run is the file's (resolve).
//   - The collapser's component tables (empty in a hashed file).
//     Collapsed keys are tuples of intern-table indices assigned in
//     first-seen order, so the tables must be persisted in index order
//     and replayed into the resumed run's fresh Collapser — otherwise
//     every saved key would be meaningless
//     (tso.Collapser.TableSnapshot/RestoreTables).
//   - The frontier. Frames are serialized as their action traces from
//     the root (a checkpointed run records traces: resolve) plus their
//     sleep masks; resume replays each trace on a fresh machine from
//     build.
//     tso.Machine.Fingerprint is deliberately one-way, so traces are
//     the only faithful frame serialization — and they stay small
//     because DFS keeps the frontier shallow.
//   - The partial Result: states/transitions/outcome counts, violation
//     verdict and trace, deadlocks.
//
// A snapshot records unfinished work. Periodic ones are taken at the
// cadence CheckpointOptions sets; an interrupted run (Options.Interrupt:
// a drain, a job timeout) parks what is left in a final one; a run that
// drained writes none — it has returned its Result, and its directory
// stays as the last periodic commit left it, or empty. The durability
// contract is the same at every instant, the one between Explore
// returning and the caller persisting the Result included: a kill loses
// at most one cadence of progress, and Resume reaches the identical
// result. A finished run's directory is not a result cache.
//
// Consistency comes from a stop-the-world barrier between frames: a
// checkpoint request parks every worker at the top of its run loop, and
// a claimed state's entire processing — claim, property check,
// expansion, finalize — happens within one worker.process call. So at
// the barrier every visited entry is final (its children are pushed,
// its pruned mask settled; sleepAcc is dead) and the stacks hold
// exactly the unexplored remainder (a frame a worker keyed ahead goes
// back on its stack before it parks). Resuming with that visited set and
// frontier explores precisely the states an uninterrupted run would
// have explored from the same point.
//
// Atomicity: snapshots are written to <dir>/checkpoint.tmp, fsynced,
// and renamed over <dir>/checkpoint.lbmf, so a crash mid-write leaves
// the previous checkpoint intact (the chaos tests kill the writer
// between the temp write and the rename to prove it).
//
// File format (all integers little-endian; uvarint = binary.Uvarint):
//
//	[8]byte  magic "LBMFCKP1"
//	uint32   IEEE CRC-32 of everything from offset 16 to EOF
//	uint32   total file length (the truncation detector: checked
//	         before the CRC so a cleanly cut-off file reports
//	         ErrCheckpointTruncated, not ErrCheckpointCorrupt)
//	uint32   header length
//	[]byte   header JSON (ckptHeader: version, options hash, root
//	         fingerprint hash pair, key width and mode, partial result,
//	         counts)
//	[]byte   visited records: VisitedCount × (KeyWidth+4) bytes of
//	         key + pruned mask; KeyWidth 16 is a hashed file, anything
//	         else the collapsed width for Procs
//	[]byte   component tables: 4 × (uvarint count, count × (uvarint
//	         len, bytes)) in index order; four zero counts in a hashed
//	         file
//	[]byte   frontier: FrontierCount × (uvarint sleep mask, uvarint
//	         trace length, length × uvarint packed action
//	         (proc<<1 | kind))

// CheckpointOptions configures periodic durable snapshots of an
// exploration (Options.Checkpoint): one at each cadence point below,
// plus a final one when Options.Interrupt stops the run. A run that
// drains writes no final snapshot, so one that finishes inside a cadence
// creates Dir and nothing in it.
type CheckpointOptions struct {
	// Dir is the checkpoint directory (created if missing); empty
	// disables checkpointing. The committed snapshot lives at
	// Dir/checkpoint.lbmf, written via temp-file + rename.
	Dir string
	// Interval requests a snapshot every wall-clock Interval (0 = no
	// timer). The snapshot happens at the next inter-frame barrier
	// after the timer fires, so long-running jobs bound their lost work
	// without per-state overhead.
	Interval time.Duration
	// EveryStates requests a snapshot each time the claimed-state count
	// crosses a multiple of EveryStates (0 = off). Deterministic with a
	// single worker, which is what the differential crash-resume tests
	// schedule their kills with.
	EveryStates int
	// OnCommit, when non-nil, runs after the nth snapshot commits
	// (renames into place), outside any engine lock that matters to the
	// caller. The kill-and-resume CI smoke uses it to SIGKILL the
	// process at a fault-scheduled point; ordinary runs leave it nil.
	OnCommit func(n int)
}

// enabled reports whether checkpointing is on.
func (c CheckpointOptions) enabled() bool { return c.Dir != "" }

// Sentinel errors distinguishing why Resume refused a checkpoint. All
// load/validate failures wrap exactly one of these (plus context), so
// callers can errors.Is-dispatch: a truncated file means the previous
// checkpoint should be tried or the run restarted, a corrupt one means
// the same with prejudice, a mismatched one means the caller is
// resuming the wrong run and should not retry at all.
var (
	// ErrCheckpointTruncated: the file is shorter than its recorded
	// length — a torn write or a cut-off copy.
	ErrCheckpointTruncated = errors.New("litmus: checkpoint file truncated")
	// ErrCheckpointCorrupt: magic, CRC, or internal structure checks
	// failed — the bytes are not a checkpoint this package wrote.
	ErrCheckpointCorrupt = errors.New("litmus: checkpoint file corrupt")
	// ErrCheckpointMismatch: the checkpoint is intact but belongs to a
	// different run — different program/config fingerprint, options
	// hash, or format version.
	ErrCheckpointMismatch = errors.New("litmus: checkpoint does not match this run")
)

const (
	ckptMagic    = "LBMFCKP1"
	ckptVersion  = 1
	ckptFileName = "checkpoint.lbmf"
	ckptTempName = "checkpoint.tmp"
	// ckptFixedHeader is the byte length of the fixed prelude: magic,
	// CRC, total length, header length.
	ckptFixedHeader = 8 + 4 + 4 + 4
)

// ckptHeader is the JSON header of a checkpoint file.
type ckptHeader struct {
	Version     int    `json:"version"`
	OptionsHash string `json:"options_hash"`
	// RootH1/RootH2 are the 128-bit hash pair of the root machine's
	// full fingerprint: program + architecture-config identity.
	RootH1   string `json:"root_h1"`
	RootH2   string `json:"root_h2"`
	Procs    int    `json:"procs"`
	KeyWidth int    `json:"key_width"`
	// Keys names the key mode KeyWidth already determines (KeysHashed /
	// KeysCollapsed), for whoever reads the header; absent in files
	// written before hashed keys could reach disk, all collapsed.
	Keys string `json:"keys,omitempty"`
	// Model is the memory model the snapshot was taken under
	// (Model.Name()); empty in pre-model checkpoints, which were all
	// TSO or SC and stay covered by OptionsHash.
	Model string `json:"model,omitempty"`

	States       int            `json:"states"`
	Transitions  int            `json:"transitions"`
	Violations   int            `json:"violations"`
	Deadlocks    int            `json:"deadlocks"`
	Truncated    bool           `json:"truncated,omitempty"`
	ViolationMsg string         `json:"violation_msg,omitempty"`
	HasViolation bool           `json:"has_violation,omitempty"`
	ViolTrace    []uint32       `json:"viol_trace,omitempty"`
	Outcomes     map[string]int `json:"outcomes,omitempty"`

	VisitedCount  int `json:"visited_count"`
	FrontierCount int `json:"frontier_count"`
}

// ckptFrame is one decoded frontier frame: the action trace from the
// root plus the sleep mask the frame carried.
type ckptFrame struct {
	sleep actionMask
	trace []Action
}

// checkpoint is a decoded snapshot, ready to seed explore.
type checkpoint struct {
	hdr      ckptHeader
	visited  []byte // VisitedCount × (KeyWidth+4) records
	tables   [tso.NumComponentTables][][]byte
	frontier []ckptFrame
}

// packAction / unpackAction encode one Action in a uvarint: kind in
// bit 0, proc in bits 1-7, the drain-class arg in bits 8+. TSO/SC
// actions carry Arg == 0, so their encoding (and every pre-Arg
// checkpoint) is unchanged.
func packAction(a Action) uint64 {
	return uint64(a.Arg)<<8 | uint64(a.Proc)<<1 | uint64(a.Kind)
}

func unpackAction(v uint64) Action {
	return Action{Proc: arch.ProcID((v >> 1) & 0x7f), Kind: ActionKind(v & 1), Arg: uint8(v >> 8)}
}

// optionsHash fingerprints the Options fields that determine an
// exploration's results, plus the plan's model and state cap, so Resume
// can refuse a checkpoint taken under different semantics. Workers,
// MemBudget, Collapse and the checkpoint cadence are deliberately
// excluded — they change performance, not results (the key mode is the
// file's, see resolve). Properties are functions, so only their count is
// hashable; the root fingerprint pair carries the rest of the program
// identity. The order of the fields below is part of every checkpoint on
// disk (TestResumeParentWrittenCheckpoint).
func optionsHash(o Options, model Model, maxStates int64) uint64 {
	var b []byte
	app := func(v int) {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, 0)
	}
	appBool := func(v bool) {
		if v {
			app(1)
		} else {
			app(0)
		}
	}
	app(int(maxStates))
	app(0) // where a since-deleted reorder bound sat, so old files still resume
	appBool(o.Reduction)
	appBool(model == scModel{}) // the slot of a since-deleted SC option
	appBool(o.StopOnViolation)
	app(len(o.Properties))
	appBool(o.Symmetry != nil)
	for _, r := range OutcomeRegs {
		app(int(r))
	}
	// Fold PSO in by name, and TSO and SC not (SC has its slot above), so
	// every pre-model TSO/SC checkpoint keeps its historical hash and
	// stays resumable. (Resume also checks the header's Model field
	// first, for a readable error; this is the belt to that suspender.)
	if model == (psoModel{}) {
		b = append(b, model.Name()...)
		b = append(b, 0)
	}
	h1, _ := tso.HashPair(b)
	return h1
}

func hex64(v uint64) string { return strconv.FormatUint(v, 16) }

// ckptCoord coordinates the stop-the-world snapshot barrier. A trigger
// (state-count multiple or wall-clock timer) sets req; every worker
// checks req between frames and parks in barrier until all live
// workers have arrived; the last arriver writes the snapshot while the
// others are parked, then releases them. Workers that have already
// returned (drained or cancelled) count via exited so a pending
// request can never strand parked workers.
type ckptCoord struct {
	e    *engine
	opts CheckpointOptions

	req  atomic.Bool
	mu   sync.Mutex
	cond *sync.Cond

	arrived int
	exited  int
	gen     uint64

	writes    uint64
	errors    uint64
	lastBytes int
	// encodeNs / syncNs split the time spent inside the barrier, summed
	// over commits: building the file image, then write + fsync + rename
	// + directory fsync.
	encodeNs, syncNs time.Duration

	stopTimer chan struct{}
}

// newCkptCoord returns nil when the checkpoint directory cannot be
// created.
func newCkptCoord(e *engine, opts CheckpointOptions) *ckptCoord {
	if os.MkdirAll(opts.Dir, 0o755) != nil {
		return nil
	}
	c := &ckptCoord{e: e, opts: opts}
	c.cond = sync.NewCond(&c.mu)
	if opts.Interval > 0 {
		c.stopTimer = make(chan struct{})
		go func() {
			t := time.NewTicker(opts.Interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					c.req.Store(true)
				case <-c.stopTimer:
					return
				}
			}
		}()
	}
	return c
}

func (c *ckptCoord) stop() {
	if c.stopTimer != nil {
		close(c.stopTimer)
	}
}

// barrier parks the calling worker until every live worker has arrived;
// the last arriver snapshots and releases the rest. Workers call it
// between frames, so nothing is mid-claim or mid-expansion while the
// snapshot reads stripes and stacks.
func (c *ckptCoord) barrier() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.req.Load() {
		return // raced with a completed snapshot
	}
	c.arrived++
	if c.arrived+c.exited == len(c.e.workers) {
		c.writeLocked()
		c.arrived--
		c.req.Store(false)
		c.gen++
		c.cond.Broadcast()
		return
	}
	gen := c.gen
	for c.gen == gen {
		c.cond.Wait()
	}
	c.arrived--
}

// exit records a worker leaving its run loop for good. If it was the
// last live worker outside the barrier, the parked ones must not wait
// forever: snapshot now (the run is finishing or cancelled — either
// way the state is quiescent for everyone parked or exited) and
// release them.
func (c *ckptCoord) exit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exited++
	if !c.req.Load() {
		return
	}
	if c.arrived > 0 && c.arrived+c.exited == len(c.e.workers) {
		c.writeLocked()
		c.req.Store(false)
		c.gen++
		c.cond.Broadcast()
	} else if c.exited == len(c.e.workers) {
		c.req.Store(false)
	}
}

// writeFinal snapshots after the pool has stopped on an interrupt, so
// the unexplored remainder is parked for Resume. Skipped after a crash
// point fired: a dead process writes nothing.
func (c *ckptCoord) writeFinal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.e.crashed.Load() {
		return
	}
	c.writeLocked()
}

// crash aborts the run as if the process died now: cancel everything,
// mark the result, write nothing further.
func (c *ckptCoord) crash() {
	c.e.crashed.Store(true)
	c.e.cancel.Store(true)
}

// writeLocked serializes and atomically commits one snapshot. Called
// with c.mu held and every live worker parked or exited, so stripe
// tables, spill segments, intern tables, worker stacks, and partial
// results are all quiescent.
func (c *ckptCoord) writeLocked() {
	e := c.e
	if e.crashed.Load() {
		return
	}
	start := time.Now()
	data := encodeCheckpoint(e)
	encoded := time.Now()
	c.encodeNs += encoded.Sub(start)

	tmp := filepath.Join(c.opts.Dir, ckptTempName)
	final := filepath.Join(c.opts.Dir, ckptFileName)
	if err := writeFileSync(tmp, data); err != nil {
		c.errors++
		return
	}
	if e.opts.Faults.At(fault.CkptTemp) {
		// Simulated crash in the vulnerable window: temp written, rename
		// never happens. The previous committed checkpoint must survive.
		c.crash()
		return
	}
	if err := os.Rename(tmp, final); err != nil {
		c.errors++
		return
	}
	syncDir(c.opts.Dir)
	c.syncNs += time.Since(encoded)
	c.writes++
	c.lastBytes = len(data)
	if e.opts.Faults.At(fault.CkptCommit) {
		c.crash()
		return
	}
	if c.opts.OnCommit != nil {
		c.opts.OnCommit(int(c.writes))
	}
}

// rootIdentity is the 128-bit hash pair identifying what a checkpoint
// explores: the root machine's full state fingerprint (architecture
// config and initial memory/register image) PLUS each processor's
// disassembled program. The dynamic fingerprint alone cannot tell two
// programs apart at the root — every program starts at PC 0 with clean
// buffers — so the program text must be folded in explicitly for
// Resume to refuse a checkpoint from a different litmus test.
func rootIdentity(m *tso.Machine) (uint64, uint64) {
	buf := m.Fingerprint(nil)
	for i := range m.Procs {
		buf = append(buf, 0)
		buf = append(buf, m.Procs[i].Prog.Disasm()...)
	}
	return tso.HashPair(buf)
}

// putStats records commit/error counts, the last committed size and
// the barrier's encode / file-system time split in the run's obs
// snapshot. Taken under the coordinator lock after the pool has drained.
func (c *ckptCoord) putStats(o *obs.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o.PutCounter("checkpoint_writes", c.writes)
	if c.errors > 0 {
		o.PutCounter("checkpoint_errors", c.errors)
	}
	o.PutGauge("checkpoint_bytes", float64(c.lastBytes))
	o.PutCounter("checkpoint_encode_ns", uint64(c.encodeNs))
	o.PutCounter("checkpoint_sync_ns", uint64(c.syncNs))
}

func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a committed rename survives power loss;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// encodeCheckpoint serializes the engine's quiescent state into one
// checkpoint file image.
func encodeCheckpoint(e *engine) []byte {
	part := e.partialResult()

	// Visited records + component tables.
	recs, count := e.visited.snapshotRecords()
	keyWidth := e.visited.recKeyWidth()
	var tables [tso.NumComponentTables][][]byte // stays empty with hashed keys
	if e.collapser != nil {
		tables = e.collapser.TableSnapshot()
	}
	var tblBuf []byte
	for _, tbl := range tables {
		tblBuf = binary.AppendUvarint(tblBuf, uint64(len(tbl)))
		for _, k := range tbl {
			tblBuf = binary.AppendUvarint(tblBuf, uint64(len(k)))
			tblBuf = append(tblBuf, k...)
		}
	}

	// Frontier: every frame still on any worker's shared or private
	// stack. The workers are parked or gone, ordered before this read by
	// the coordinator's lock (or the pool's WaitGroup), so the private
	// stacks need no lock of their own.
	var frBuf []byte
	frontier := 0
	for _, w := range e.workers {
		for _, stack := range [][]pframe{w.shared, w.priv} {
			for i := range stack {
				f := &stack[i]
				frontier++
				frBuf = binary.AppendUvarint(frBuf, uint64(f.sleep))
				acts := f.parent.materialize()
				if !f.root {
					acts = append(acts, f.act)
				}
				frBuf = binary.AppendUvarint(frBuf, uint64(len(acts)))
				for _, a := range acts {
					frBuf = binary.AppendUvarint(frBuf, packAction(a))
				}
			}
		}
	}

	hdr := ckptHeader{
		Version:       ckptVersion,
		OptionsHash:   hex64(optionsHash(e.opts, e.model, e.maxStates)),
		RootH1:        hex64(e.rootH1),
		RootH2:        hex64(e.rootH2),
		Procs:         e.nprocs,
		KeyWidth:      keyWidth,
		Keys:          keysName(keyWidth),
		Model:         e.model.Name(),
		States:        part.States,
		Transitions:   part.Transitions,
		Violations:    part.Violations,
		Deadlocks:     part.Deadlocks,
		Truncated:     part.Truncated,
		VisitedCount:  count,
		FrontierCount: frontier,
	}
	if part.FirstViolation != nil {
		hdr.HasViolation = true
		hdr.ViolationMsg = part.FirstViolation.Error()
		for _, a := range part.ViolationTrace {
			hdr.ViolTrace = append(hdr.ViolTrace, uint32(packAction(a)))
		}
	}
	if len(part.Outcomes) > 0 {
		hdr.Outcomes = make(map[string]int, len(part.Outcomes))
		for o, n := range part.Outcomes {
			hdr.Outcomes[string(o)] = n
		}
	}
	hjson, err := json.Marshal(hdr)
	if err != nil {
		// A map[string]int and scalars cannot fail to marshal.
		panic(err)
	}

	total := ckptFixedHeader + len(hjson) + len(recs) + len(tblBuf) + len(frBuf)
	out := make([]byte, 0, total)
	out = append(out, ckptMagic...)
	out = append(out, 0, 0, 0, 0) // CRC placeholder
	out = binary.LittleEndian.AppendUint32(out, uint32(total))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hjson)))
	out = append(out, hjson...)
	out = append(out, recs...)
	out = append(out, tblBuf...)
	out = append(out, frBuf...)
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(out[16:]))
	return out
}

// loadCheckpoint reads and structurally validates a checkpoint file,
// wrapping every failure in exactly one of the sentinel errors.
func loadCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("litmus: reading checkpoint: %w", err)
	}
	if len(data) < ckptFixedHeader {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrCheckpointTruncated, len(data), ckptFixedHeader)
	}
	if string(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, data[:8])
	}
	total := int(binary.LittleEndian.Uint32(data[12:16]))
	if len(data) < total {
		return nil, fmt.Errorf("%w: %d of %d bytes", ErrCheckpointTruncated, len(data), total)
	}
	if len(data) > total {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, len(data)-total)
	}
	if got, want := crc32.ChecksumIEEE(data[16:]), binary.LittleEndian.Uint32(data[8:12]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCheckpointCorrupt, want, got)
	}
	hlen := int(binary.LittleEndian.Uint32(data[16:20]))
	body := data[ckptFixedHeader:]
	if hlen < 0 || hlen > len(body) {
		return nil, fmt.Errorf("%w: header length %d exceeds file", ErrCheckpointCorrupt, hlen)
	}
	ck := &checkpoint{}
	if err := json.Unmarshal(body[:hlen], &ck.hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCheckpointCorrupt, err)
	}
	if ck.hdr.Version != ckptVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrCheckpointMismatch, ck.hdr.Version, ckptVersion)
	}
	if k := ck.hdr.Keys; k != "" && k != keysName(ck.hdr.KeyWidth) {
		return nil, fmt.Errorf("%w: header says %q keys at key width %d", ErrCheckpointCorrupt, k, ck.hdr.KeyWidth)
	}
	if kw := tso.CollapsedWidth(ck.hdr.Procs); ck.hdr.KeyWidth != hashedKeyWidth && ck.hdr.KeyWidth != kw {
		return nil, fmt.Errorf("%w: checkpointed key width %d, this build uses %d (%s) or, for %d procs, %d (%s)",
			ErrCheckpointMismatch, ck.hdr.KeyWidth, hashedKeyWidth, KeysHashed, ck.hdr.Procs, kw, KeysCollapsed)
	}
	body = body[hlen:]

	recWidth := ck.hdr.KeyWidth + 4
	if ck.hdr.KeyWidth <= 0 || ck.hdr.VisitedCount < 0 || ck.hdr.VisitedCount*recWidth > len(body) {
		return nil, fmt.Errorf("%w: %d visited records of %d bytes exceed body", ErrCheckpointCorrupt, ck.hdr.VisitedCount, recWidth)
	}
	ck.visited = body[:ck.hdr.VisitedCount*recWidth]
	body = body[ck.hdr.VisitedCount*recWidth:]

	readUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, false
		}
		body = body[n:]
		return v, true
	}
	for t := range ck.tables {
		n, ok := readUvarint()
		if !ok {
			return nil, fmt.Errorf("%w: component table %d count", ErrCheckpointCorrupt, t)
		}
		tbl := make([][]byte, 0, n)
		for i := uint64(0); i < n; i++ {
			l, ok := readUvarint()
			if !ok || l > uint64(len(body)) {
				return nil, fmt.Errorf("%w: component table %d entry %d", ErrCheckpointCorrupt, t, i)
			}
			tbl = append(tbl, body[:l])
			body = body[l:]
		}
		ck.tables[t] = tbl
	}

	ck.frontier = make([]ckptFrame, 0, ck.hdr.FrontierCount)
	for i := 0; i < ck.hdr.FrontierCount; i++ {
		sleep, ok := readUvarint()
		if !ok {
			return nil, fmt.Errorf("%w: frontier frame %d sleep mask", ErrCheckpointCorrupt, i)
		}
		depth, ok := readUvarint()
		if !ok {
			return nil, fmt.Errorf("%w: frontier frame %d depth", ErrCheckpointCorrupt, i)
		}
		fr := ckptFrame{sleep: actionMask(sleep), trace: make([]Action, 0, depth)}
		for d := uint64(0); d < depth; d++ {
			v, ok := readUvarint()
			if !ok {
				return nil, fmt.Errorf("%w: frontier frame %d action %d", ErrCheckpointCorrupt, i, d)
			}
			fr.trace = append(fr.trace, unpackAction(v))
		}
		ck.frontier = append(ck.frontier, fr)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d undecoded trailing body bytes", ErrCheckpointCorrupt, len(body))
	}
	return ck, nil
}

// Resume restarts an exploration from the last committed checkpoint in
// dir. build and opts must recreate the original run (properties are
// functions and cannot be persisted); Resume verifies the program and
// config via the root machine's fingerprint hash pair and the
// result-determining options via their hash, refusing a mismatched
// checkpoint with an error wrapping ErrCheckpointMismatch rather than
// silently producing results that belong to neither run. The resumed
// Result's Outcomes, Deadlocks, and verdict are identical to an
// uninterrupted run's; without Reduction, States and Transitions are
// identical too.
//
// The resumed run keeps checkpointing into dir (opts.Checkpoint.Dir
// defaults to dir when unset), so repeated kill/resume cycles make
// monotonic progress. It keys its visited set as the file does,
// whatever opts.Collapse says (resolve).
func Resume(dir string, build func() *tso.Machine, opts Options) (Result, error) {
	ck, err := loadCheckpoint(filepath.Join(dir, ckptFileName))
	if err != nil {
		return Result{}, err
	}
	if opts.Checkpoint.Dir == "" {
		opts.Checkpoint.Dir = dir
	}
	root := build()
	p := resolve(root, opts, ck, false)
	// Check the memory model first and by name: resuming a TSO snapshot
	// under -model pso (or vice versa) is the mismatch a user can
	// actually fix from the message, so it must not hide behind the
	// generic options-hash hex dump. Pre-model checkpoints have no
	// Model field; they were all TSO or SC and the options hash below
	// still distinguishes those.
	if want := p.model.Name(); ck.hdr.Model != "" && ck.hdr.Model != want {
		return Result{}, fmt.Errorf("%w: checkpoint was taken under the %s memory model but this run selects %s; resume with the original model or start fresh",
			ErrCheckpointMismatch, ck.hdr.Model, want)
	}
	h1, h2 := rootIdentity(root)
	if ck.hdr.RootH1 != hex64(h1) || ck.hdr.RootH2 != hex64(h2) || ck.hdr.Procs != len(root.Procs) {
		return Result{}, fmt.Errorf("%w: checkpointed program/config fingerprint %s/%s (%d procs) differs from this build's %s/%s (%d procs)",
			ErrCheckpointMismatch, ck.hdr.RootH1, ck.hdr.RootH2, ck.hdr.Procs, hex64(h1), hex64(h2), len(root.Procs))
	}
	if want := hex64(optionsHash(opts, p.model, p.maxStates)); ck.hdr.OptionsHash != want {
		return Result{}, fmt.Errorf("%w: checkpointed options hash %s differs from this run's %s (reduction, max states, property count, and outcome registers must all match)",
			ErrCheckpointMismatch, ck.hdr.OptionsHash, want)
	}
	return exploreFrom(build, root, opts, p, ck), nil
}

// baseResult converts a decoded checkpoint's partial result into the
// engine's seed: the totals already accumulated before the crash.
func (ck *checkpoint) baseResult() Result {
	res := Result{
		States:      ck.hdr.States,
		Transitions: ck.hdr.Transitions,
		Violations:  ck.hdr.Violations,
		Deadlocks:   ck.hdr.Deadlocks,
		Truncated:   ck.hdr.Truncated,
		Outcomes:    make(map[Outcome]int, len(ck.hdr.Outcomes)),
	}
	for o, n := range ck.hdr.Outcomes {
		res.Outcomes[Outcome(o)] = n
	}
	if ck.hdr.HasViolation {
		res.FirstViolation = errors.New(ck.hdr.ViolationMsg)
		for _, v := range ck.hdr.ViolTrace {
			res.ViolationTrace = append(res.ViolationTrace, unpackAction(uint64(v)))
		}
	}
	return res
}
