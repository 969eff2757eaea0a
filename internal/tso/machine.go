package tso

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/mesi"
	"repro/internal/storebuf"
)

// ProcStats counts events on one processor.
type ProcStats struct {
	Instructions uint64 // instructions committed
	Loads        uint64
	Stores       uint64
	Mfences      uint64 // explicit mfence instructions executed
	LinkFences   uint64 // l-mfence sequences begun
	LinkFallback uint64 // l-mfence sequences that fell back to mfence (link broke pre-commit)
	LinkBreaks   uint64 // links broken by remote traffic or eviction
	Flushes      uint64 // whole-buffer flushes (mfence, link break, rearm)
	Drains       uint64 // individual store completions
}

// Proc is one simulated processor.
type Proc struct {
	ID   arch.ProcID
	Prog *Program

	PC     int
	Regs   [NumRegs]arch.Word
	Halted bool
	InCS   bool // inside a critical section (between CSEnter and CSExit)

	// LEBit and LEAddr are the two registers the LE/ST mechanism adds;
	// they always describe the *current* l-mfence's link (the one the
	// following LinkBranch will test).
	LEBit bool
	// stale flags the entries of keys to re-encode (statekey.go). It sits
	// here, in the padding before LEAddr, to keep Proc in its 256-byte
	// size class.
	stale  uint8
	LEAddr arch.Addr

	// links holds every live link. The paper's hardware has exactly one
	// (Cfg.Links == 1), in which case links mirrors LEBit/LEAddr; the
	// multi-link variant keeps several armed at once. Each entry tracks
	// which store-buffer entry is its guarded store, so that natural
	// completion clears the link as the paper requires.
	links []procLink

	SB *storebuf.Buffer

	// Clock is the processor's local cycle counter (timing mode only).
	Clock int64

	Stats ProcStats

	// keys caches this processor's components of the state key (core,
	// store buffer, cache: the Collapser's tuple order); see statekey.go.
	keys [3]compKey
}

// procLink is one live LE/ST link.
type procLink struct {
	addr   arch.Addr
	seq    uint64 // the guarded store's buffer sequence number
	seqSet bool   // false until the ST commits
}

// findLink returns the index of the live link for addr, or -1.
func (p *Proc) findLink(addr arch.Addr) int {
	for i := range p.links {
		if p.links[i].addr == addr {
			return i
		}
	}
	return -1
}

// dropLink removes the link at index i, preserving order (oldest first).
func (p *Proc) dropLink(i int) {
	p.links = append(p.links[:i], p.links[i+1:]...)
}

// LinkCount reports the number of live LE/ST links. The model checker's
// partial-order reduction uses it (with LinkAddr and HasLink) to predict
// whether a LinkBegin will flush without re-running the machine.
func (p *Proc) LinkCount() int { return len(p.links) }

// LinkAddr returns the guarded address of the i-th live link (oldest
// first).
func (p *Proc) LinkAddr(i int) arch.Addr { return p.links[i].addr }

// HasLink reports whether a live link guards addr.
func (p *Proc) HasLink(addr arch.Addr) bool { return p.findLink(addr) >= 0 }

// Tracer receives execution events; nil tracers are skipped. Used by
// cmd/lbmfsim to print instruction and coherence traces.
type Tracer interface {
	OnExec(p arch.ProcID, pc int, in Instr)
	OnDrain(p arch.ProcID, e storebuf.Entry)
	OnLinkBreak(p arch.ProcID, addr arch.Addr, reason mesi.GuardReason)
}

// Machine is the whole simulated multiprocessor.
type Machine struct {
	Cfg   arch.Config
	Sys   *mesi.System
	Procs []*Proc

	Tracer Tracer

	// CSViolation is set when two processors were ever inside a critical
	// section simultaneously; checkers read it after each step.
	CSViolation bool
	// memStale flags memKey, below, for re-encoding.
	memStale bool

	// remoteGuardBreaks counts guard breaks caused by the most recent
	// memory access, letting the timing runner charge the requester the
	// LE/ST round-trip cost.
	remoteGuardBreaks int

	// The state-key cache's machine-wide part (statekey.go): the memory
	// image's key, and which Collapser's intern ids the cached keys are
	// (nil: digests).
	memKey   compKey
	keyOwner *Collapser
}

// NewMachine builds a machine for cfg and loads one program per
// processor. Programs may be nil for idle processors.
func NewMachine(cfg arch.Config, progs ...*Program) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(progs) > cfg.Procs {
		panic(fmt.Sprintf("tso: %d programs for %d processors", len(progs), cfg.Procs))
	}
	m := &Machine{
		Cfg:   cfg,
		Sys:   mesi.NewSystem(cfg),
		Procs: make([]*Proc, cfg.Procs),
	}
	for i := range m.Procs {
		p := &Proc{ID: arch.ProcID(i), SB: storebuf.New(cfg.StoreBufferDepth)}
		if i < len(progs) && progs[i] != nil {
			p.Prog = progs[i]
		} else {
			p.Halted = true
		}
		m.Procs[i] = p
	}
	m.Invalidate()
	m.installGuardHandlers()
	return m
}

// installGuardHandlers wires each processor's link-break behaviour into
// the cache controllers. The handler implements the paper's notify/reply
// protocol: clear LEBit/LEAddr, flush the store buffer, and only then let
// the coherence action proceed (the handler returning *is* the reply).
func (m *Machine) installGuardHandlers() {
	for i := range m.Procs {
		p := m.Procs[i]
		m.Sys.SetGuardHandler(p.ID, func(addr arch.Addr, reason mesi.GuardReason) {
			if i := p.findLink(addr); i >= 0 {
				p.dropLink(i)
			}
			if p.LEAddr == addr {
				p.LEBit = false
			}
			p.stale |= staleCore
			p.Stats.LinkBreaks++
			m.remoteGuardBreaks++
			if m.Tracer != nil {
				m.Tracer.OnLinkBreak(p.ID, addr, reason)
			}
			m.flush(p)
		})
	}
}

// flush completes every pending store in program (FIFO) order.
func (m *Machine) flush(p *Proc) {
	if !p.SB.Empty() {
		p.Stats.Flushes++
	}
	for !p.SB.Empty() {
		m.drainOne(p)
	}
}

// drainOne completes the oldest pending store, returning its bus cost.
func (m *Machine) drainOne(p *Proc) int64 {
	return m.drainAt(p, 0)
}

// drainAt completes the pending store at FIFO position i, returning its
// bus cost. Position 0 is the TSO drain; PSO class drains complete
// mid-buffer entries (the oldest store of a younger address class).
func (m *Machine) drainAt(p *Proc, i int) int64 {
	e := p.SB.PopAt(i)
	p.stale |= staleSB
	if len(p.links) > 0 {
		// Link entries encode their store's buffer position, and the
		// loop below may clear one.
		p.stale |= staleCore
	}
	cost := m.Sys.Write(p.ID, e.Addr, e.Val)
	p.Stats.Drains++
	// Completing a guarded store clears its link (Section 3: "upon
	// completing the store, the processor also clears LEBit and LEAddr").
	for i := range p.links {
		l := p.links[i]
		if l.seqSet && l.seq == e.Seq {
			m.Sys.DisarmGuard(p.ID, l.addr)
			if p.LEAddr == l.addr {
				p.LEBit = false
			}
			p.dropLink(i)
			break
		}
	}
	if m.Tracer != nil {
		m.Tracer.OnDrain(p.ID, e)
	}
	return cost
}

// CanExec reports whether processor p can commit its next instruction
// right now. A store-class instruction with a full store buffer must wait
// for a drain step; everything else is always ready.
func (m *Machine) CanExec(pid arch.ProcID) bool {
	p := m.Procs[pid]
	if p.Halted {
		return false
	}
	in := p.Prog.Instrs[p.PC]
	if in.Op.IsStore() && p.SB.Full() {
		return false
	}
	return true
}

// CanDrain reports whether processor p has a pending store to complete.
func (m *Machine) CanDrain(pid arch.ProcID) bool {
	return !m.Procs[pid].SB.Empty()
}

// DrainStep completes processor p's oldest pending store. This models the
// store buffer flushing an entry "whenever the system bus is available";
// the model checker interleaves it freely with instruction commits.
func (m *Machine) DrainStep(pid arch.ProcID) {
	p := m.Procs[pid]
	m.remoteGuardBreaks = 0
	m.drainOne(p)
}

// DrainClasses reports how many distinct-address drain classes
// processor p's buffer currently exposes (see storebuf.DistinctAddrs).
// Under PSO each class drains independently; under TSO only class 0
// (the overall oldest entry) may complete.
func (m *Machine) DrainClasses(pid arch.ProcID) int {
	return m.Procs[pid].SB.DistinctAddrs()
}

// DrainClassStep completes the oldest pending store of processor p's
// class-th distinct address (classes ordered by first occurrence in
// the buffer). DrainClassStep(pid, 0) is exactly DrainStep(pid): the
// first distinct address owns the overall oldest entry. Same-address
// stores still complete in program order, which is what makes the
// per-address buffer PSO rather than something weaker.
func (m *Machine) DrainClassStep(pid arch.ProcID, class int) {
	p := m.Procs[pid]
	i := p.SB.ClassOldestIndex(class)
	if i < 0 {
		panic(fmt.Sprintf("tso: drain class %d of %v with %d classes pending",
			class, pid, p.SB.DistinctAddrs()))
	}
	m.remoteGuardBreaks = 0
	m.drainAt(p, i)
}

// Halted reports whether every processor has halted.
func (m *Machine) Halted() bool {
	for _, p := range m.Procs {
		if !p.Halted {
			return false
		}
	}
	return true
}

// Quiesced reports whether the machine can take no further step: all
// processors halted and all store buffers empty.
func (m *Machine) Quiesced() bool {
	for _, p := range m.Procs {
		if !p.Halted || !p.SB.Empty() {
			return false
		}
	}
	return true
}

// loadValue performs a load with store-buffer forwarding, returning the
// value and the cycle cost.
func (m *Machine) loadValue(p *Proc, addr arch.Addr) (arch.Word, int64) {
	if v, ok := p.SB.Lookup(addr); ok {
		return v, m.Cfg.Cost.L1Hit
	}
	return m.Sys.Read(p.ID, addr)
}

// commitStore commits a store into p's buffer. Callers must have checked
// buffer space (CanExec); the timing runner drains synchronously first
// when full.
func (m *Machine) commitStore(p *Proc, addr arch.Addr, val arch.Word) storebuf.Entry {
	e := p.SB.Push(addr, val)
	p.stale |= staleSB
	p.Stats.Stores++
	return e
}

// ExecStep commits processor p's next instruction and returns its cycle
// cost under the machine's cost model. The model checker ignores the
// cost; the timing runner adds it to the processor clock.
func (m *Machine) ExecStep(pid arch.ProcID) int64 {
	p := m.Procs[pid]
	if p.Halted {
		panic(fmt.Sprintf("tso: exec on halted %v", pid))
	}
	in := p.Prog.Instrs[p.PC]
	if m.Tracer != nil {
		m.Tracer.OnExec(p.ID, p.PC, in)
	}
	p.Stats.Instructions++
	p.stale |= staleCore
	m.remoteGuardBreaks = 0
	cost := m.Cfg.Cost.RegOp
	next := p.PC + 1

	switch in.Op {
	case OpNop:

	case OpLoadI:
		p.Regs[in.Rd] = in.Imm

	case OpLoad:
		v, c := m.loadValue(p, in.Addr)
		p.Regs[in.Rd] = v
		cost = c
		p.Stats.Loads++

	case OpLoadIdx:
		addr := in.Addr + arch.Addr(p.Regs[in.Ra])
		v, c := m.loadValue(p, addr)
		p.Regs[in.Rd] = v
		cost = c
		p.Stats.Loads++

	case OpStore:
		m.commitStore(p, in.Addr, p.Regs[in.Ra])

	case OpStoreI:
		m.commitStore(p, in.Addr, in.Imm)

	case OpStoreIdx:
		addr := in.Addr + arch.Addr(p.Regs[in.Ra])
		m.commitStore(p, addr, p.Regs[in.Rb])

	case OpAdd:
		p.Regs[in.Rd] = p.Regs[in.Ra] + p.Regs[in.Rb]

	case OpAddI:
		p.Regs[in.Rd] = p.Regs[in.Ra] + in.Imm

	case OpSub:
		p.Regs[in.Rd] = p.Regs[in.Ra] - p.Regs[in.Rb]

	case OpBlt:
		if p.Regs[in.Ra] < p.Regs[in.Rb] {
			next = in.Target
		}

	case OpBeq:
		if p.Regs[in.Ra] == in.Imm {
			next = in.Target
		}

	case OpBne:
		if p.Regs[in.Ra] != in.Imm {
			next = in.Target
		}

	case OpJmp:
		next = in.Target

	case OpMfence:
		p.Stats.Mfences++
		cost = m.Cfg.Cost.MfenceBase +
			int64(p.SB.Len())*m.Cfg.Cost.StoreBufferDrainPerEntry
		m.flush(p)

	case OpLinkBegin:
		p.Stats.LinkFences++
		maxLinks := m.Cfg.Links
		if maxLinks <= 0 {
			maxLinks = 1
		}
		switch {
		case p.findLink(in.Addr) >= 0:
			// Re-arming the same guarded location: the existing link
			// carries over, no flush (the paper's same-location case).
		case len(p.links) < maxLinks:
			p.links = append(p.links, procLink{addr: in.Addr})
		default:
			// All link registers busy: the paper's rule — flush the
			// store buffer and clear the links before proceeding.
			cost += int64(p.SB.Len()) * m.Cfg.Cost.StoreBufferDrainPerEntry
			m.flush(p)
			for _, l := range p.links {
				m.Sys.DisarmGuard(p.ID, l.addr)
			}
			p.links = p.links[:0]
			p.links = append(p.links, procLink{addr: in.Addr})
		}
		p.LEBit = true
		p.LEAddr = in.Addr
		if i := p.findLink(in.Addr); i >= 0 {
			p.links[i].seqSet = false
		}

	case OpLE:
		v, c := m.Sys.ReadExclusive(p.ID, in.Addr)
		p.Regs[in.Rd] = v
		cost = c + m.Cfg.Cost.LELinkSetup
		p.Stats.Loads++
		// The link is set once the line is Exclusive and the registers
		// are armed; from here the cache controller watches the line.
		if p.LEBit && p.LEAddr == in.Addr && p.findLink(in.Addr) >= 0 {
			m.Sys.ArmGuard(p.ID, in.Addr)
		}

	case OpStoreLinked, OpStoreLinkedReg:
		val := in.Imm
		if in.Op == OpStoreLinkedReg {
			val = p.Regs[in.Ra]
		}
		e := m.commitStore(p, in.Addr, val)
		if p.LEBit && p.LEAddr == in.Addr {
			if i := p.findLink(in.Addr); i >= 0 {
				p.links[i].seq = e.Seq
				p.links[i].seqSet = true
			}
		}

	case OpLinkBranch:
		if !p.LEBit {
			// Link broke before the store committed: serialize now.
			p.Stats.LinkFallback++
			p.Stats.Mfences++
			cost = m.Cfg.Cost.MfenceBase +
				int64(p.SB.Len())*m.Cfg.Cost.StoreBufferDrainPerEntry
			m.flush(p)
		}

	case OpCSEnter:
		p.InCS = true
		for _, q := range m.Procs {
			if q != p && q.InCS {
				m.CSViolation = true
			}
		}

	case OpCSExit:
		p.InCS = false

	case OpHalt:
		p.Halted = true
		next = p.PC

	default:
		panic(fmt.Sprintf("tso: unknown op %v", in.Op))
	}

	p.PC = next
	return cost
}

// RemoteGuardBreaks reports how many remote links the most recent
// ExecStep or DrainStep broke; the timing runner uses it to charge the
// requester the LE/ST round trip.
func (m *Machine) RemoteGuardBreaks() int { return m.remoteGuardBreaks }

// Interrupt models a context switch, interrupt, or delivered signal on
// processor p (Section 2: "in the event that a context switch, an
// interrupt, or a serializing instruction is encountered, the entire
// store buffer is drained"). The store buffer flushes and any armed
// LE/ST link is cleared — which is exactly how the paper's software
// prototype serializes the primary: the signal's interrupt flushes the
// store buffer before the handler runs.
func (m *Machine) Interrupt(pid arch.ProcID) {
	p := m.Procs[pid]
	m.remoteGuardBreaks = 0
	p.LEBit = false
	p.links = p.links[:0]
	p.stale |= staleCore
	m.Sys.DisarmAllGuards(p.ID)
	m.flush(p)
}

// Mem returns the globally visible value of addr (Modified cache copy or
// memory).
func (m *Machine) Mem(addr arch.Addr) arch.Word { return m.Sys.CoherentValue(addr) }

// Clone deep-copies the machine (excluding the tracer) and rewires guard
// handlers to the clone. The model checker forks states with it.
func (m *Machine) Clone() *Machine {
	nm := &Machine{
		Cfg:         m.Cfg,
		Sys:         m.Sys.Clone(),
		Procs:       make([]*Proc, len(m.Procs)),
		CSViolation: m.CSViolation,
		memKey:      m.memKey,
		memStale:    m.memStale,
		keyOwner:    m.keyOwner,
	}
	for i, p := range m.Procs {
		np := *p
		np.SB = p.SB.Clone()
		np.links = append([]procLink(nil), p.links...)
		nm.Procs[i] = &np
	}
	nm.installGuardHandlers()
	return nm
}

// CopyFrom overwrites m with src's architectural state and state-key
// cache, reusing m's allocations (processor structs, store buffers, link
// slices, and the dense per-cache line arrays: O(Procs × MemWords) bytes
// per machine, all moved by copy). m must have been built or cloned from the same
// machine shape as src. Guard handlers already installed on m close over
// m's processor structs, which survive the copy, so no rewiring is
// needed — this is what makes free-list recycling in the model checker
// cheaper than Clone, which must allocate everything and re-install
// handlers.
func (m *Machine) CopyFrom(src *Machine) {
	if len(m.Procs) != len(src.Procs) {
		panic("tso: CopyFrom across different machine shapes")
	}
	m.Cfg = src.Cfg
	m.Sys.CopyFrom(src.Sys)
	m.CSViolation = src.CSViolation
	m.remoteGuardBreaks = src.remoteGuardBreaks
	m.memKey, m.memStale, m.keyOwner = src.memKey, src.memStale, src.keyOwner
	for i, sp := range src.Procs {
		dp := m.Procs[i]
		sb, links := dp.SB, dp.links
		*dp = *sp
		dp.SB = sb
		dp.SB.CopyFrom(sp.SB)
		dp.links = append(links[:0], sp.links...)
	}
}

// Detach drops m's references to the run it served: its Tracer and the
// Collapser its cached keys speak for. A machine parked on a free list
// between explorations then holds only its own arrays. Until the next
// CopyFrom into it, m is fit for nothing else.
func (m *Machine) Detach() { m.Tracer, m.keyOwner = nil, nil }

// Fingerprint appends a canonical encoding of the architecturally visible
// machine state to dst: per-processor PC, registers, link registers, CS
// flag, store buffer, plus the coherence system. Clocks and statistics
// are excluded so states differing only in timing hash identically.
//
// Value domain: register, memory and cache words are encoded in four
// bytes (FingerprintCore, mesi.FingerprintMem, mesi.FingerprintCache),
// so the fingerprint identifies a state only while every value fits in
// 32 bits; values differing only above bit 31 would alias. The .litmus
// front end enforces that on the way in (it rejects integer literals
// outside the int32 range) and no protocol here computes its way out of
// it; a hand-built program with wider immediates is outside the
// checker's contract.
//
// The encoding is the concatenation of the per-component encoders below
// (FingerprintCore and storebuf.Buffer.Fingerprint per processor, the
// CS byte, then mesi.System.Fingerprint); the collapse compressor
// interns each component separately instead of hashing the whole
// serialization.
func (m *Machine) Fingerprint(dst []byte) []byte {
	for i := range m.Procs {
		dst = m.FingerprintCore(i, dst)
		dst = m.Procs[i].SB.Fingerprint(dst)
	}
	if m.CSViolation {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return m.Sys.Fingerprint(dst)
}

// FingerprintCore appends processor i's core component of Fingerprint:
// PC, registers, flags, and link registers (store buffer excluded — it
// is its own component). Link entries identify their guarded store by
// buffer position rather than the history-dependent raw sequence
// number.
func (m *Machine) FingerprintCore(i int, dst []byte) []byte {
	p := m.Procs[i]
	dst = append(dst, byte(p.PC), byte(p.PC>>8))
	for _, r := range p.Regs {
		dst = append(dst, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	flags := byte(0)
	if p.Halted {
		flags |= 1
	}
	if p.InCS {
		flags |= 2
	}
	if p.LEBit {
		flags |= 4
	}
	dst = append(dst, flags, byte(p.LEAddr), byte(p.LEAddr>>8))
	// Encode each live link: its address, whether its guarded store has
	// committed, and — by position, an O(1) lookup since pending seqs
	// are contiguous — where that store sits in the buffer.
	dst = append(dst, byte(len(p.links)))
	for _, l := range p.links {
		dst = append(dst, byte(l.addr), byte(l.addr>>8))
		linkedIdx := byte(0xff)
		if l.seqSet {
			if i := p.SB.IndexOfSeq(l.seq); i >= 0 {
				linkedIdx = byte(i)
			}
		}
		dst = append(dst, linkedIdx)
	}
	return dst
}
