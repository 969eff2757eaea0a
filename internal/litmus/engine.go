package litmus

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/tso"
)

// This file is the exploration engine behind Explore: a work-stealing
// worker pool over the interleaving graph. The design, per component:
//
//   - Frontier: each worker pushes and pops an owner-private LIFO stack
//     with no lock (DFS order keeps machine states cache-warm and the
//     frontier shallow). After each frame the owner moves the *oldest*
//     half of it — frames near the root own the largest unexplored
//     subtrees — to a mutex-guarded shared stack, but only when that
//     stack is empty (one atomic load to check); an idle worker empties
//     some shared stack straight into its private one. In a large space
//     the shared stacks stay full and a frame costs no synchronisation:
//     even the frame count that detects termination (engine.pending) is
//     settled only when frames change hands.
//   - Visited set: one structure, visited.go: 256 (one for one worker)
//     lock-striped flat open-addressed tables of 24-byte slots. A 64-bit
//     hash of the state picks the stripe and the probe start; a slot
//     matches on that hash AND either a second independent 64-bit hash
//     (an effective 128-bit key, the default) or the exact collapsed
//     key kept in the stripe's arena (Options.Collapse). Both keys are
//     assembled from the machine's cached component keys
//     (worker.stateKey), so claiming a state is a re-encoding of what
//     the last action wrote, one uncontended lock and a linear probe.
//   - Traces: a frame carries its parent's immutable parent-pointer
//     chain plus its own action instead of a per-frame copy of the
//     action slice (the serial engine's O(depth²) allocation). Its own
//     link is allocated only once it wins its claim and has children or
//     a violation to hang on it — most frames die as duplicates — and a
//     full trace is materialized only when a violation is recorded.
//     Links are carved from per-worker slabs that outlive the run on a
//     process-wide free list (traceFree), like the machines below.
//   - Machines: each worker recycles dead machines (duplicate states,
//     terminal states) through a free list via tso.Machine.CopyFrom
//     (slice copies over flat cache arrays, no allocation), and the last
//     child of every expansion reuses the parent machine in place, so a
//     state with branching factor k costs at most k-1 copies and usually
//     zero fresh allocations. The machines a run still holds when it
//     ends pass to the next exploration of the same Config through a
//     process-wide free list (machineFree), so a sweep of small
//     explorations clones almost nothing.
//
// Exactly one worker wins the visited-set claim for any state, so each
// distinct state is expanded exactly once and, without Options.Reduction,
// the merged States, Transitions, Outcomes, Violations, and Deadlocks are
// deterministic and identical to the serial reference engine's
// (differential tests pin this), though such a run executes only the
// edges its sleep sets do not cover (reduce.go, "Sleep sets alone").
// Which violation is reported *first* is scheduling-dependent; the trace
// itself always replays to a violating state. Under Options.Reduction
// the sleep masks depend on arrival order, so States/Transitions/
// Violations may vary slightly between runs; Outcomes, Deadlocks, and
// violation *reachability* stay exact (see reduce.go for the argument,
// TestReductionDifferential for the pin).

// pframe is one unit of exploration work: a machine state, the action
// that produced it with its parent's trace chain (root marks the one
// frame no action produced) and, when the run has a reducer, the sleep
// set it arrived with.
type pframe struct {
	m      *tso.Machine
	parent *traceNode
	act    Action
	sleep  actionMask
	root   bool
}

// traceNode is an immutable parent-pointer trace link; child frames
// share their ancestors' chain instead of copying the prefix.
type traceNode struct {
	parent *traceNode
	act    Action
}

// materialize rebuilds the root-first action slice. Only called when a
// violation is recorded.
func (n *traceNode) materialize() []Action {
	depth := 0
	for c := n; c != nil; c = c.parent {
		depth++
	}
	out := make([]Action, depth)
	for c := n; c != nil; c = c.parent {
		depth--
		out[depth] = c.act
	}
	return out
}

// Trace links come from slabs of slabNodes links. A worker carves its
// links from one slab at a time and lists the first maxPooledSlabs slabs
// it takes; when the run ends, after any final snapshot has read the
// frontier's chains, the listed slabs go back cleared to traceFree, up to
// maxPooledSlabs in all, and the next exploration's workers draw from
// there before they allocate. By then recordViolation has materialized
// the only trace a Result keeps, so no link is read after its run. The
// slabs a worker takes beyond its list are left to the collector, which
// frees each once no live chain runs through it, so a large exploration
// keeps about the links its frontier's chains hold, not one per state.
const (
	// slabNodes 24-byte links and the 8-byte header the allocator puts
	// on a pointer-carrying object over 512 B fill the 8 KiB size class
	// exactly; 256 links (6,152 B) would round up to 6,528.
	slabNodes      = 341
	maxPooledSlabs = 256
)

var slabMu sync.Mutex
var traceFree [][]traceNode // empty slabs of capacity slabNodes, under slabMu

// drawSlab returns an empty slab, a pooled one when there is one.
func drawSlab() []traceNode {
	slabMu.Lock()
	n := len(traceFree)
	if n == 0 {
		slabMu.Unlock()
		return make([]traceNode, 0, slabNodes)
	}
	s := traceFree[n-1]
	traceFree[n-1] = nil
	traceFree = traceFree[:n-1]
	slabMu.Unlock()
	return s
}

// hashPair returns the visited-set hash pair of an exact key:
// tso.HashPair's, through the test hook.
func hashPair(b []byte) (uint64, uint64) {
	h1, h2 := tso.HashPair(b)
	if pairFilter != nil {
		h1, h2 = pairFilter(h1, h2, b)
	}
	return h1, h2
}

// pairFilter, when set, rewrites every hash pair on its way to the
// visited set, whichever key mode produced it (key is nil when the pair
// is a machine's hashed key). The collision-injection tests degrade one
// or both halves with it and check that distinct states still get
// distinct visited entries.
var pairFilter func(h1, h2 uint64, key []byte) (uint64, uint64)

// engine is the shared state of one Explore call.
type engine struct {
	plan
	opts    Options
	workers []*worker
	// ck coordinates checkpoint barriers; nil when Options.Checkpoint is
	// off. base holds the partial totals restored by Resume (zero for a
	// fresh run); rootH1/rootH2 fingerprint the root machine for the
	// checkpoint header, and nprocs its processor count.
	ck             *ckptCoord
	base           Result
	rootH1, rootH2 uint64
	nprocs         int
	// cfg is the root's Config, which keys the machines this run draws
	// from and returns to machineFree.
	cfg     arch.Config
	visited visitedSet
	// collapser holds the shared component intern tables when the visited
	// set keys on exact collapsed tuples; nil when it keys on hash pairs.
	collapser *tso.Collapser

	// h1Collisions counts distinct states sharing a 64-bit primary hash
	// (resolved by the second hash or the exact key); verifyCollisions
	// counts distinct fingerprints sharing the full 128-bit key,
	// detectable only under Options.VerifyVisited.
	h1Collisions     atomic.Uint64
	verifyCollisions atomic.Uint64

	// pending counts frames created but not yet fully processed; the
	// exploration is complete when an idle worker reads zero. A processed
	// frame changes the count by children-1, which its worker sums in
	// worker.owed and adds here only before it publishes frames or runs
	// dry. So every frame another worker can take is counted, and a
	// worker with an unsettled sum has retired a counted frame it has not
	// subtracted yet: the count lags but reads zero only at the end.
	pending atomic.Int64
	// states counts visited-set claims, capped cooperatively at
	// maxStates. Every won claim writes it, so it has a cache line to
	// itself: cancel below is read on every frame by every worker.
	_      [64]byte
	states atomic.Int64
	_      [56]byte
	cancel atomic.Bool

	truncated atomic.Bool
	// interrupted is set when Options.Interrupt stopped the run;
	// crashed when an armed fault crash point fired (the in-process
	// stand-in for SIGKILL in the chaos tests).
	interrupted atomic.Bool
	crashed     atomic.Bool

	violMu         sync.Mutex
	firstViolation error
	violTrace      []Action
}

// partialResult merges the resumed base totals with every worker's
// partial result: the counts an uninterrupted run would report for the
// states explored so far. Callers must hold the exploration quiescent
// (the checkpoint barrier) or drained (final assembly).
func (e *engine) partialResult() Result {
	res := Result{
		States:      int(e.states.Load()),
		Transitions: e.base.Transitions,
		Violations:  e.base.Violations,
		Deadlocks:   e.base.Deadlocks,
		Truncated:   e.truncated.Load(),
		Outcomes:    make(map[Outcome]int, len(e.base.Outcomes)),
	}
	for o, c := range e.base.Outcomes {
		res.Outcomes[o] += c
	}
	for _, w := range e.workers {
		res.Transitions += w.res.Transitions
		res.Violations += w.res.Violations
		res.Deadlocks += w.res.Deadlocks
		for o, c := range w.res.Outcomes {
			res.Outcomes[o] += c
		}
	}
	e.violMu.Lock()
	res.FirstViolation = e.firstViolation
	res.ViolationTrace = e.violTrace
	e.violMu.Unlock()
	return res
}

// maxFreeMachines bounds each worker's machine free list.
const maxFreeMachines = 64

// Machines outlive their exploration. When Explore returns, the machines
// on its workers' free lists, and those of any frames a cancel left on
// their stacks, move to machineFree, where the next exploration of a
// machine with the same Config draws them before it clones. A Config
// fixes everything CopyFrom needs of its destination (processors, memory
// words, buffer depth, protocol). The list keeps up to maxPooledMachines
// a Config and maxPooledConfigs Configs; unlike a sync.Pool it survives
// collections, so what a run recycles does not depend on when the
// collector last ran.
const (
	maxPooledMachines = 256
	maxPooledConfigs  = 8
	// drawMachines is how many machines a worker takes at once.
	drawMachines = 16
)

var machineMu sync.Mutex
var machineFree = map[arch.Config][]*tso.Machine{} // under machineMu

// drawPooled appends up to drawMachines pooled machines of cfg to dst.
func drawPooled(cfg arch.Config, dst []*tso.Machine) []*tso.Machine {
	machineMu.Lock()
	defer machineMu.Unlock()
	l := machineFree[cfg]
	k := max(len(l)-drawMachines, 0)
	dst = append(dst, l[k:]...)
	clear(l[k:])
	if l != nil {
		machineFree[cfg] = l[:k]
	}
	return dst
}

// worker is one exploration goroutine with its frontier, machine free
// list, scratch buffers, and partial result.
type worker struct {
	id  int
	eng *engine

	// priv is the owner-only LIFO every push and pop works on. shared
	// holds the frames the owner has offered to idle workers, behind mu;
	// nshared mirrors len(shared) so both sides can skip the lock.
	priv    []pframe
	mu      sync.Mutex
	shared  []pframe
	nshared atomic.Int32
	owed    int // unsettled adjustment to engine.pending

	free    []*tso.Machine
	poolDry bool // machineFree had nothing left for this run
	// slab is the slab node carves trace links from; slabs lists the
	// first maxPooledSlabs slabs the worker took, for retireSlabs.
	slab     []traceNode
	slabs    [][]traceNode
	fpBuf    []byte
	probeBuf []byte // successor keys for the cycle proviso
	actBuf   []Action
	outBuf   []byte
	pl       porScratch // reduction scratch

	// canon is this worker's symmetry canonicalizer (its scratch machine
	// is worker-private).
	canon  *tso.Canonicalizer
	colBuf []byte // component encoding scratch for the key cache's refresh

	// Reduction accounting: states where a single-processor ample set was
	// chosen, transitions withheld by sleep sets, transitions re-expanded
	// when a later path needed a previously pruned action, states whose
	// ample choice the cycle proviso probed, and ample choices it demoted.
	ampleStates   uint64
	slept         uint64
	reexpanded    uint64
	provisoProbes uint64
	provisoFalls  uint64

	// Claim accounting, owner-written plain counters (obs enters only at
	// merge time): claimTries is visited-set claim attempts, claimWins the
	// attempts this worker won. tries-wins is the duplicate work the
	// frontier split failed to avoid.
	claimTries uint64
	claimWins  uint64

	res Result // partial; merged after the pool drains
}

func (w *worker) push(f pframe) { w.priv = append(w.priv, f) }

// pop takes the newest private frame, refilling the private stack from
// a shared one when it has run dry.
func (w *worker) pop() (pframe, bool) {
	if len(w.priv) == 0 {
		w.settle()
		if !w.steal() {
			return pframe{}, false
		}
	}
	n := len(w.priv) - 1
	f := w.priv[n]
	w.priv[n] = pframe{}
	w.priv = w.priv[:n]
	return f, true
}

// settle folds the worker's unsettled frame count into engine.pending.
func (w *worker) settle() {
	if w.owed != 0 {
		w.eng.pending.Add(int64(w.owed))
		w.owed = 0
	}
}

// steal empties the first non-empty shared stack, the worker's own
// first, into its private stack.
func (w *worker) steal() bool {
	ws := w.eng.workers
	for off := range ws {
		v := ws[(w.id+off)%len(ws)]
		if v.nshared.Load() == 0 {
			continue
		}
		v.mu.Lock()
		w.priv = append(w.priv, v.shared...)
		clear(v.shared)
		v.shared = v.shared[:0]
		v.nshared.Store(0)
		v.mu.Unlock()
		if len(w.priv) > 0 {
			return true
		}
	}
	return false
}

// publish offers the oldest half of the private stack to idle workers
// once they have taken everything offered before.
func (w *worker) publish() {
	half := len(w.priv) / 2
	if half == 0 || len(w.eng.workers) == 1 || w.nshared.Load() != 0 {
		return
	}
	w.settle()
	w.mu.Lock()
	w.shared = append(w.shared, w.priv[:half]...)
	w.nshared.Store(int32(half))
	w.mu.Unlock()
	rest := copy(w.priv, w.priv[half:])
	clear(w.priv[rest:])
	w.priv = w.priv[:rest]
}

func (w *worker) run() {
	e := w.eng
	if e.ck != nil {
		defer e.ck.exit()
	}
	for {
		if c := e.ck; c != nil && c.req.Load() {
			c.barrier()
		}
		if e.opts.Interrupt != nil && e.opts.Interrupt.Load() {
			e.interrupted.Store(true)
			e.cancel.Store(true)
		}
		if e.cancel.Load() {
			return
		}
		f, ok := w.pop()
		if !ok {
			if e.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		n := len(w.priv)
		w.process(f)
		w.owed += len(w.priv) - n - 1
		w.publish()
	}
}

// recycle parks a dead machine for reuse by clone.
func (w *worker) recycle(m *tso.Machine) {
	if len(w.free) < maxFreeMachines {
		w.free = append(w.free, m)
	}
}

// clone produces a private copy of src, reusing a free-listed machine's
// allocations when one is available: the worker's own, else a batch
// drawn from machineFree.
func (w *worker) clone(src *tso.Machine) *tso.Machine {
	if len(w.free) == 0 && !w.poolDry {
		w.free = drawPooled(w.eng.cfg, w.free)
		w.poolDry = len(w.free) == 0
	}
	if n := len(w.free); n > 0 {
		m := w.free[n-1]
		w.free = w.free[:n-1]
		m.CopyFrom(src)
		return m
	}
	return src.Clone()
}

// node builds f's own trace link in the worker's slab; nil at the root
// and when the run records no traces.
func (w *worker) node(f *pframe) *traceNode {
	if !w.eng.traces || f.root {
		return nil
	}
	if len(w.slab) == cap(w.slab) {
		w.slab = drawSlab()
		if len(w.slabs) < maxPooledSlabs {
			w.slabs = append(w.slabs, w.slab)
		}
	}
	w.slab = append(w.slab, traceNode{parent: f.parent, act: f.act})
	return &w.slab[len(w.slab)-1]
}

// pushChild pushes the successor of m under a, reached over the trace
// ending in node. The last child of an expansion is applied in place:
// the parent's fingerprint is already claimed, so its state is dead.
func (w *worker) pushChild(m *tso.Machine, node *traceNode, a Action, inPlace bool, sleep actionMask) {
	child := m
	if !inPlace {
		child = w.clone(m)
	}
	w.eng.model.Apply(child, a)
	w.push(pframe{m: child, parent: node, act: a, sleep: sleep})
}

// stateKey is the engine's one key routine: it returns what the visited
// set is keyed with for m, the hash pair and, with exact keys, the
// collapsed tuple appended to buf[:0] (key is nil with hashed keys).
// Both are those of the canonical orbit representative under symmetry and
// come from the machine's cached component keys (tso/statekey.go), so a
// state costs the re-encoding of what the action that produced it wrote.
// It also returns the processor permutation that takes m to that
// representative: nil for identity, otherwise the canonicalizer's
// read-only table for the rotation. The representative itself is built
// only where its bytes are read: never for an exact key whose component
// ids the canonicalizer has already seen renamed
// (tso.Canonicalizer.CollapsedKey), always for a hashed one, which has
// digests where the id maps need dense ids.
//
// Under Options.VerifyVisited key is the full fingerprint, computed from
// scratch, while the pair still comes from the cached digests: the audit
// holds the hash in use against the definition it must agree with.
func (w *worker) stateKey(buf []byte, m *tso.Machine) (h1, h2 uint64, key []byte, slot []int) {
	if c := w.eng.collapser; c != nil {
		if w.canon != nil {
			key, slot = w.canon.CollapsedKey(c, m, buf[:0], &w.colBuf)
		} else {
			key = c.Collapse(m, buf[:0], &w.colBuf)
		}
		h1, h2 = tso.HashPair(key)
	} else {
		cm := m
		if w.canon != nil {
			cm, slot = w.canon.Canonicalize(m)
		}
		h1, h2 = cm.KeyPair(&w.colBuf)
		if w.eng.opts.VerifyVisited {
			key = cm.Fingerprint(buf[:0])
		}
	}
	if pairFilter != nil {
		h1, h2 = pairFilter(h1, h2, key)
	}
	return h1, h2, key, slot
}

// process claims, checks, and expands one frame.
func (w *worker) process(f pframe) {
	e := w.eng
	m := f.m

	// Eager cancellation: a frame popped before a peer set the flag is
	// dropped here rather than expanded, so StopOnViolation and MaxStates
	// cut off in-flight work as fast as the flag propagates.
	if e.cancel.Load() {
		w.recycle(m)
		return
	}

	// slot is the permutation that takes the frame to its canonical
	// representative, nil for identity (always, without symmetry). Sleep
	// masks cross into the visited set in canonical processor numbering
	// (see permuteMask).
	h1, h2, key, slot := w.stateKey(w.fpBuf, m)
	if key != nil {
		w.fpBuf = key
	}
	w.claimTries++
	st, missing := e.claim(h1, h2, key, permuteMask(f.sleep, slot))
	switch st {
	case claimTruncated:
		w.recycle(m)
		return
	case claimDup:
		if missing != 0 {
			// A previous visit withheld actions this path's (smaller) sleep
			// set cannot justify skipping; expand exactly those. The entry's
			// mask is canonical; translate back to this machine's numbering.
			w.expandFrom(&f, unpermuteMask(missing, slot))
		} else {
			w.recycle(m)
		}
		return
	}
	w.claimWins++
	// Winning a claim is the only event that grows the resident set; shed
	// cold stripes if the budget is now exceeded.
	e.visited.maybeSpill()

	violated := false
	var node *traceNode
	for _, prop := range e.opts.Properties {
		if err := prop(m); err != nil {
			w.res.Violations++
			violated = true
			node = w.node(&f)
			e.recordViolation(err, node)
			break
		}
	}
	if violated && e.opts.StopOnViolation {
		e.cancel.Store(true)
		w.recycle(m)
		return
	}

	enabled := w.enabled(m)
	if len(enabled) == 0 {
		if m.Quiesced() {
			// Outcomes are recorded from the canonical representative so
			// every member of an orbit contributes the same outcome string,
			// whichever member a worker reaches first. This is the one
			// place an exact-keyed run reads the representative machine
			// rather than its key, so it is built here.
			cm := m
			if w.canon != nil {
				cm, _ = w.canon.Canonicalize(m)
			}
			w.outBuf = appendOutcome(w.outBuf[:0], cm)
			w.res.Outcomes[Outcome(w.outBuf)]++
		} else {
			w.res.Deadlocks++
		}
		w.recycle(m)
		return
	}

	if e.red != nil {
		e.red.analyze(m, enabled, &w.pl)
		// Cycle proviso: an ample set with an already-visited successor
		// could close a cycle that ignores the excluded processors
		// forever. Reject such candidates one processor at a time; when
		// none survives, choose falls through to full expansion. A
		// candidate mayCycle clears lies on no cycle and is not probed.
		for skip := uint32(0); w.pl.ample && e.red.mayCycle(m, enabled, &w.pl); {
			if skip == 0 {
				w.provisoProbes++
			}
			if !w.ampleSuccessorSeen(m, enabled) {
				break
			}
			skip |= 1 << uint(enabled[w.pl.tidx[0]].Proc)
			w.provisoFalls++
			e.red.choose(m, enabled, &w.pl, skip)
		}
		// Sleep sets alone chose every enabled action, and the winning
		// claim already published what this frame's sleep set withholds as
		// the entry's pruned mask (reduce.go, "Sleep sets alone"), so the
		// expansion reads the frame's own mask. A reduced run publishes the
		// persistent set, fetches the sleep mask merged across every
		// arrival so far, and expands the survivors. The visited entry
		// speaks canonical numbering; the expansion runs on the live
		// machine, so both masks translate at the boundary. Under symmetry
		// with ample sets the sleep mask is forced empty: the ample sets'
		// delegation does not survive orbit merging (see the rationale in
		// serial.go), so those runs reduce with ample sets and the proviso
		// only. An ample set on a possible cycle that the merged mask puts
		// wholly asleep demotes to full expansion (reduce.go, "Asleep ample
		// sets"); finalize decides that under the stripe lock, so the entry
		// never publishes a set the winner does not expand.
		noSleep := w.canon != nil && !e.red.sleepOnly
		z := f.sleep
		if !e.red.sleepOnly {
			var full actionMask
			if w.pl.ample && w.canon == nil && e.red.mayCycle(m, enabled, &w.pl) {
				full = maskOfAll(enabled)
			}
			z = unpermuteMask(e.finalize(h1, h2, key, permuteMask(w.pl.tmask, slot), full), slot)
			if noSleep {
				z = 0
			}
			if full != 0 && w.pl.tmask&^z == 0 {
				w.pl.fullExpand(enabled)
				w.provisoFalls++
			}
		}
		if w.pl.ample {
			w.ampleStates++
		}
		e.red.expansion(enabled, &w.pl, z)
		w.slept += uint64(w.pl.sleptCount())
		if e.red.sleepOnly {
			// Sleep sets alone keep every state, so Transitions stays the
			// full graph's edge count: a state's edges count once, here,
			// executed or slept, and expandFrom counts none.
			w.res.Transitions += len(enabled)
		} else {
			w.res.Transitions += len(w.pl.idx)
		}
		if len(w.pl.idx) == 0 {
			// Everything was slept; the machine is dead.
			w.recycle(m)
			return
		}
		if node == nil {
			node = w.node(&f)
		}
		last := len(w.pl.idx) - 1
		for k, i := range w.pl.idx {
			cs := w.pl.childSleep[k]
			if noSleep {
				cs = 0
			}
			w.pushChild(m, node, enabled[i], k == last, cs)
		}
		return
	}

	w.res.Transitions += len(enabled)
	if node == nil {
		node = w.node(&f)
	}
	last := len(enabled) - 1
	for i, a := range enabled {
		w.pushChild(m, node, a, i == last, 0)
	}
}

// enabled lists m's enabled actions into actBuf and returns them, every
// Drain before every Exec when the plan says so. The reducer indexes the
// slice, so a state's expansion, proviso probes and re-expansion all
// read the one order.
func (w *worker) enabled(m *tso.Machine) []Action {
	e := w.eng
	w.actBuf = e.model.Enabled(w.actBuf[:0], m)
	if e.drainsFirst {
		drainsFirst(w.actBuf)
	}
	return w.actBuf
}

// drainsFirst moves every Drain of acts ahead of every Exec in place,
// keeping each kind's order.
func drainsFirst(acts []Action) {
	k := 0
	for i, a := range acts {
		if a.Kind == Drain {
			copy(acts[k+1:i+1], acts[k:i])
			acts[k] = a
			k++
		}
	}
}

// ampleSuccessorSeen implements the closed-set cycle proviso's probe:
// it applies each chosen ample action to a scratch clone and reports
// whether any resulting state is already visited (including m itself,
// just claimed — a self-loop trips immediately). It runs between the
// worker's claim of m and finalize, so every probe is ordered after the
// prober's own claim; see reduce.go for why that makes the proviso
// sound under work stealing.
func (w *worker) ampleSuccessorSeen(m *tso.Machine, enabled []Action) bool {
	e := w.eng
	for _, i := range w.pl.tidx {
		child := w.clone(m)
		e.model.Apply(child, enabled[i])
		// Keyed into probeBuf: the claimed state's key in fpBuf and its
		// permutation must stay live across the probes.
		h1, h2, key, _ := w.stateKey(w.probeBuf, child)
		if key != nil {
			w.probeBuf = key
		}
		w.recycle(child)
		if e.seen(h1, h2, key) {
			return true
		}
	}
	return false
}

// expandFrom expands the enabled actions of f.m selected by mask, used
// when a duplicate arrival must re-open previously pruned expansions.
// The children start with empty sleep sets: the conservative choice,
// costing at most the work the first visit saved.
func (w *worker) expandFrom(f *pframe, mask actionMask) {
	m := f.m
	enabled := w.enabled(m)
	// A duplicate arrival chooses no expansion of its own, so the
	// reduction scratch's index slice is free to hold the picks.
	picked := w.pl.idx[:0]
	for i, a := range enabled {
		if mask&maskOf(a) != 0 {
			picked = append(picked, i)
		}
	}
	w.pl.idx = picked
	w.reexpanded += uint64(len(picked))
	if !w.eng.red.sleepOnly {
		w.res.Transitions += len(picked)
	}
	if len(picked) == 0 {
		w.recycle(m)
		return
	}
	node := w.node(f)
	last := len(picked) - 1
	for k, i := range picked {
		w.pushChild(m, node, enabled[i], k == last, 0)
	}
}

// retireMachines moves every machine the drained or stopped workers
// still hold, free-listed or on a frame a cancel left behind, to
// machineFree as far as its room allows, detaching each from this run.
// A Config new to a full map displaces another one's list.
func (e *engine) retireMachines() {
	machineMu.Lock()
	defer machineMu.Unlock()
	l, ok := machineFree[e.cfg]
	if !ok && len(machineFree) >= maxPooledConfigs {
		for c := range machineFree {
			delete(machineFree, c)
			break
		}
	}
	park := func(m *tso.Machine) {
		if len(l) < maxPooledMachines {
			m.Detach()
			l = append(l, m)
		}
	}
	for _, w := range e.workers {
		for _, m := range w.free {
			park(m)
		}
		for _, f := range w.priv {
			park(f.m)
		}
		for _, f := range w.shared {
			park(f.m)
		}
		w.free, w.priv, w.shared = nil, nil, nil
	}
	machineFree[e.cfg] = l
}

// retireSlabs clears the workers' trace slabs and moves them to
// traceFree as far as its room allows. Every chain in them is dead: the
// workers have stopped, retireMachines has dropped the frames, and any
// final snapshot is written.
func (e *engine) retireSlabs() {
	slabMu.Lock()
	defer slabMu.Unlock()
	for _, w := range e.workers {
		for _, s := range w.slabs {
			if len(traceFree) == maxPooledSlabs {
				break
			}
			clear(s[:cap(s)])
			traceFree = append(traceFree, s[:0])
		}
		w.slab, w.slabs = nil, nil
	}
}

func (e *engine) recordViolation(err error, tr *traceNode) {
	e.violMu.Lock()
	if e.firstViolation == nil {
		e.firstViolation = err
		e.violTrace = tr.materialize()
	}
	e.violMu.Unlock()
}

// Explore exhaustively searches all interleavings of the machine
// produced by build, using opts.Workers parallel workers (default
// GOMAXPROCS). The builder is invoked once; the search clones states as
// it forks. Without Options.Reduction the merged result is
// deterministic — identical to a serial exploration, Transitions
// included — except for which violation is designated first, even
// though sleep sets keep it from executing the edges a commuting
// sibling covers wherever resolve allows them (plan.go). The
// machines build returns become the engine's: they are stepped in place
// and, once the run ends, recycled into later explorations.
func Explore(build func() *tso.Machine, opts Options) Result {
	root := build()
	return exploreFrom(build, root, opts, resolve(root, opts, nil, false), nil)
}

// exploreFrom runs the exploration p plans, from root (a machine build
// returned) or, when ck is non-nil, from that decoded checkpoint:
// restored component tables and visited records seed the visited set,
// the saved partial result seeds the totals, and the saved frontier
// traces replay into the workers' stacks in place of the root frame.
func exploreFrom(build func() *tso.Machine, root *tso.Machine, opts Options, p plan, ck *checkpoint) Result {
	start := time.Now()
	ckptOn := opts.Checkpoint.enabled()
	nw := p.nworkers

	e := &engine{plan: p, opts: opts, cfg: root.Cfg}
	e.nprocs = len(root.Procs)
	if ckptOn || ck != nil {
		e.rootH1, e.rootH2 = rootIdentity(root)
	}
	if e.keyWidth > 0 {
		e.collapser = tso.NewCollapser()
	}
	// Without a reducer, or with sleep sets alone, no finalize call ever
	// comes: a state's expansion does not depend on the visited set, so
	// its entry is born finalized, its pruned mask the winning arrival's
	// sleep mask (zero without a reducer), and immediately spillable.
	e.visited.init(nw, e.keyWidth, opts.MemBudget, e.red == nil || e.red.sleepOnly, opts.VerifyVisited)
	e.visited.faults = opts.Faults
	e.workers = make([]*worker, nw)
	for i := range e.workers {
		e.workers[i] = &worker{
			id:    i,
			eng:   e,
			fpBuf: make([]byte, 0, 256),
			res:   Result{Outcomes: make(map[Outcome]int)},
		}
		if e.sym != nil {
			e.workers[i].canon = tso.NewCanonicalizer(e.sym, root)
		}
	}
	if ck != nil {
		// Seed the resumed run: intern tables first (saved collapsed keys
		// are index tuples into them), then the visited records,
		// the partial totals, and the frontier — each saved frame
		// replayed from a fresh root and dealt round-robin.
		if e.collapser != nil {
			e.collapser.RestoreTables(ck.tables)
		}
		e.visited.restoreRecords(ck.visited)
		e.base = ck.baseResult()
		e.states.Store(int64(e.base.States))
		if e.base.Truncated {
			e.truncated.Store(true)
			e.cancel.Store(true)
		}
		if e.base.FirstViolation != nil {
			e.firstViolation = e.base.FirstViolation
			e.violTrace = e.base.ViolationTrace
			if opts.StopOnViolation {
				e.cancel.Store(true)
			}
		}
		for i, fr := range ck.frontier {
			f := pframe{m: build(), sleep: fr.sleep, root: len(fr.trace) == 0}
			for k, a := range fr.trace {
				e.model.Apply(f.m, a)
				if k > 0 {
					f.parent = &traceNode{parent: f.parent, act: f.act}
				}
				f.act = a
			}
			e.workers[i%nw].push(f)
		}
		e.pending.Store(int64(len(ck.frontier)))
	} else {
		e.workers[0].push(pframe{m: root, root: true})
		e.pending.Store(1)
	}

	if ckptOn {
		// An uncreatable checkpoint dir degrades to an uncheckpointed
		// run (e.ck stays nil, reported via checkpoint_errors) rather
		// than failing the exploration.
		e.ck = newCkptCoord(e, opts.Checkpoint)
	}

	if nw == 1 {
		e.workers[0].run()
	} else {
		var wg sync.WaitGroup
		for _, w := range e.workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.run()
			}(w)
		}
		wg.Wait()
	}

	if e.ck != nil {
		e.ck.stop()
		// A snapshot records unfinished work: an interrupted run parks
		// what is left of it in a final one; a run that drained returns
		// its Result and leaves the directory as its last periodic commit
		// left it. Skipped when a crash point fired, since a dead process
		// writes nothing.
		if e.interrupted.Load() {
			e.ck.writeFinal()
		}
	}

	e.retireMachines()
	e.retireSlabs()
	res := e.partialResult()
	res.Interrupted = e.interrupted.Load()
	res.Crashed = e.crashed.Load()
	var tries, wins, ample, slept, reexp, probes, proviso uint64
	for _, w := range e.workers {
		tries += w.claimTries
		wins += w.claimWins
		ample += w.ampleStates
		slept += w.slept
		reexp += w.reexpanded
		probes += w.provisoProbes
		proviso += w.provisoFalls
	}
	res.Elapsed = time.Since(start)
	res.Obs.PutCounter("claim_tries", tries)
	res.Obs.PutCounter("claim_wins", wins)
	res.Obs.PutCounter("workers", uint64(nw))
	if e.drainsFirst {
		res.Obs.PutGauge("search_refutation_first", 1)
	}
	if vs := &e.visited; vs.keyWidth == 0 {
		res.Obs.PutCounter("visited_h1_collisions", e.h1Collisions.Load())
		if opts.VerifyVisited {
			res.Obs.PutCounter("visited_128bit_collisions", e.verifyCollisions.Load())
		}
	} else {
		components, tblBytes := e.collapser.Stats()
		peak := vs.peak.Load()
		res.Obs.PutGauge("collapse", 1)
		// Under Symmetry the tables hold a rotated state's components as
		// they stand as well as renamed (the id maps are indexed by the
		// former), a few percent more entries than the representatives'
		// alone.
		res.Obs.PutCounter("collapse_components", components)
		res.Obs.PutGauge("collapse_table_bytes", float64(tblBytes))
		res.Obs.PutGauge("visited_resident_bytes", float64(peak))
		// The honest memory figure: peak resident visited set PLUS the
		// shared component tables the collapsed keys depend on.
		total := peak + tblBytes
		res.Obs.PutGauge("peak_visited_bytes", float64(total))
		if total > 0 {
			res.Obs.PutGauge("states_per_byte", float64(res.States)/float64(total))
		}
	}
	if vs := &e.visited; vs.budget > 0 {
		res.Obs.PutCounter("visited_spill_events", vs.spillEvents.Load())
		res.Obs.PutCounter("visited_spilled_states", vs.spilledStates.Load())
		res.Obs.PutGauge("visited_spilled_bytes", float64(vs.spilledBytes.Load()))
		if vs.disabled.Load() {
			res.Obs.PutGauge("visited_spill_disabled", 1)
		}
		if f := vs.spillFailures.Load(); f > 0 {
			res.Obs.PutCounter("visited_spill_failures", f)
		}
	}
	e.visited.close()
	if e.sym != nil {
		res.Obs.PutGauge("symmetry", 1)
		if e.collapser != nil {
			// What the learned id maps did (tso.Canonicalizer.CollapsedKey):
			// a miss is a rotated key that built its representative.
			var rotated, misses uint64
			for _, w := range e.workers {
				rot, miss := w.canon.KeyStats()
				rotated, misses = rotated+rot, misses+miss
			}
			res.Obs.PutCounter("symmetry_rotated_keys", rotated)
			res.Obs.PutCounter("symmetry_map_misses", misses)
		}
	}
	if e.red != nil {
		res.Obs.PutCounter("por_slept_transitions", slept)
		res.Obs.PutCounter("por_reexpansions", reexp)
		if !e.red.sleepOnly {
			res.Obs.PutGauge("reduction", 1)
			res.Obs.PutCounter("por_ample_states", ample)
			res.Obs.PutCounter("por_proviso_probes", probes)
			res.Obs.PutCounter("por_proviso_fallbacks", proviso)
		}
	}
	if tries > 0 {
		// Fraction of claim attempts that found the state already visited:
		// the duplicate work the per-worker frontiers did not avoid.
		res.Obs.PutGauge("visited_hit_rate", float64(tries-wins)/float64(tries))
	}
	if e.ck != nil {
		e.ck.putStats(&res.Obs)
	} else if ckptOn {
		res.Obs.PutGauge("checkpoint_disabled", 1)
		res.Obs.PutCounter("checkpoint_errors", 1)
	}
	if ck != nil {
		res.Obs.PutGauge("resumed", 1)
		res.Obs.PutGauge("resumed_states", float64(ck.hdr.States))
	}
	res.Obs.PutGauge("states_per_sec", res.StatesPerSec())
	return res
}
