// Package mesi implements a snooping MESI cache-coherence protocol over a
// single shared bus, at the granularity the paper needs: one word per
// cache line, private caches per processor, and writeback on downgrade.
//
// Beyond textbook MESI, the package provides the *guard* hook the LE/ST
// mechanism of "Location-Based Memory Fences" requires: each cache
// controller can be armed to watch one address (the l-mfence's guarded
// location). Whenever servicing a remote request — or a local eviction —
// would downgrade or invalidate the watched line, the controller first
// notifies its processor (a synchronous callback that flushes the store
// buffer and clears the link) and only then lets the coherence action
// proceed. This is precisely the "cache controller waits for the
// processor's reply" protocol of Section 3.
package mesi

import (
	"fmt"
	"slices"

	"repro/internal/arch"
)

// State is a MESI cache-line state.
type State uint8

// The coherence states. Invalid is the zero value so absent lines read
// as Invalid naturally. Owned exists only under the MOESI protocol
// flavour; Exclusive never appears under MSI.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Owned
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// dirty reports whether the state holds data newer than memory.
func (s State) dirty() bool { return s == Modified || s == Owned }

// GuardReason tells a guard handler why its link is being broken.
type GuardReason uint8

const (
	// GuardDowngrade: a remote read needs the line in Shared state.
	GuardDowngrade GuardReason = iota
	// GuardInvalidate: a remote write (or read-exclusive) needs the line
	// gone from this cache.
	GuardInvalidate
	// GuardEvict: the local cache is evicting the line for capacity.
	GuardEvict
)

func (r GuardReason) String() string {
	switch r {
	case GuardDowngrade:
		return "downgrade"
	case GuardInvalidate:
		return "invalidate"
	case GuardEvict:
		return "evict"
	default:
		return fmt.Sprintf("GuardReason(%d)", uint8(r))
	}
}

// GuardHandler is invoked by a cache controller, with the guard already
// disarmed, before the coherence action that breaks the link proceeds.
// The handler is expected to complete the processor's pending stores
// (flush its store buffer); the controller resumes once it returns, so
// the requesting processor then observes the most up-to-date value.
type GuardHandler func(addr arch.Addr, reason GuardReason)

// Stats counts coherence events, for traces and experiment reporting.
type Stats struct {
	BusReads          uint64 // BusRd transactions (load misses)
	BusReadXs         uint64 // BusRdX transactions (store/LE misses)
	BusUpgrades       uint64 // S -> M upgrades
	CacheToCache      uint64 // transfers serviced by a peer cache
	MemoryFetches     uint64 // transfers serviced by memory
	Writebacks        uint64 // M lines written back to memory
	Invalidations     uint64 // lines invalidated by remote requests
	Downgrades        uint64 // M/E lines downgraded to S
	Evictions         uint64 // capacity evictions
	GuardBreaks       uint64 // guard handlers fired
	GuardBreaksRemote uint64 // fired due to remote traffic (not eviction)
}

// line is one cache-line slot, 16 bytes: the model checker copies every
// line of every cache per explored state.
type line struct {
	val arch.Word
	// meta is the coherence state in the low byte under the tick of the
	// line's last use, which orders lines for LRU eviction. The tick
	// never enters state fingerprints (the model checker runs with
	// eviction disabled).
	meta uint64
}

func (l *line) state() State    { return State(l.meta) }
func (l *line) lastUse() uint64 { return l.meta >> 8 }

// used stamps the line with the tick of an access.
func (l *line) used(tick uint64) { l.meta = tick<<8 | l.meta&0xff }

// cache is flat state: the model checker copies and fingerprints one
// System per explored state, so a cache is a dense array the size of the
// (small, <= arch.MaxMemWords) memory rather than a hash map.
type cache struct {
	lines    []line // indexed by address; state == Invalid means absent
	resident int    // number of non-Invalid lines
	capacity int    // 0 means unbounded (model-checking mode)

	// guards is the sorted set of addresses this controller watches on
	// behalf of armed LE/ST links. The paper's baseline hardware has
	// exactly one LEBit/LEAddr pair, so the set holds at most one entry
	// there; the multi-link design-space variant (arch.Config.Links > 1)
	// arms several.
	guards  []arch.Addr
	handler GuardHandler

	// dirty is set by every write to what FingerprintCache encodes (line
	// states and values, the guard list); see System.CacheDirty.
	dirty bool
}

// guardIndex returns the position of addr in the sorted guard list, or
// where it would be inserted, and whether it is there.
func (c *cache) guardIndex(addr arch.Addr) (int, bool) {
	i := 0
	for i < len(c.guards) && c.guards[i] < addr {
		i++
	}
	return i, i < len(c.guards) && c.guards[i] == addr
}

func (c *cache) arm(addr arch.Addr) {
	if i, armed := c.guardIndex(addr); !armed {
		c.guards = slices.Insert(c.guards, i, addr)
		c.dirty = true
	}
}

// disarm reports whether addr was armed.
func (c *cache) disarm(addr arch.Addr) bool {
	i, armed := c.guardIndex(addr)
	if armed {
		c.guards = slices.Delete(c.guards, i, i+1)
		c.dirty = true
	}
	return armed
}

// fill installs addr in the given state, as a miss completes.
func (c *cache) fill(addr arch.Addr, state State, val arch.Word) *line {
	ln := &c.lines[addr]
	if ln.state() == Invalid {
		c.resident++
	}
	*ln = line{val: val, meta: uint64(state)}
	c.dirty = true
	return ln
}

// drop removes addr from the cache.
func (c *cache) drop(addr arch.Addr) {
	if c.lines[addr].state() != Invalid {
		c.resident--
		c.dirty = true
	}
	c.lines[addr] = line{}
}

// set rewrites a resident line's state and value in place.
func (c *cache) set(ln *line, state State, val arch.Word) {
	ln.val, ln.meta = val, ln.meta&^0xff|uint64(state)
	c.dirty = true
}

// System is the coherent memory system: flat memory plus one cache per
// processor, all hanging off one logical bus. System is not safe for
// concurrent use; the simulator drives it from a single goroutine.
type System struct {
	cfg     arch.Config
	mem     []arch.Word
	caches  []cache
	useTick uint64
	stats   Stats
	// memDirty is set by every write to backing memory; see MemDirty.
	memDirty bool
}

// NewSystem builds a coherent system for cfg. Caches are unbounded unless
// a positive capacity is set via SetCacheCapacity; unbounded caches keep
// the model checker's state space finite and deterministic.
func NewSystem(cfg arch.Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		cfg:    cfg,
		mem:    make([]arch.Word, cfg.MemWords),
		caches: make([]cache, cfg.Procs),
	}
	// One allocation each for all the caches' lines and guard lists: a
	// system is built per Explore and per Clone.
	links := max(cfg.Links, 1) // Links <= 0 means 1
	lines := make([]line, cfg.Procs*cfg.MemWords)
	guards := make([]arch.Addr, cfg.Procs*links)
	for i := range s.caches {
		s.caches[i].lines = lines[i*cfg.MemWords : (i+1)*cfg.MemWords : (i+1)*cfg.MemWords]
		s.caches[i].guards = guards[i*links : i*links : (i+1)*links]
	}
	return s
}

// Procs reports the number of processors in the system.
func (s *System) Procs() int { return len(s.caches) }

// Stats returns a copy of the event counters.
func (s *System) Stats() Stats { return s.stats }

// ResetStats zeroes the event counters.
func (s *System) ResetStats() { s.stats = Stats{} }

// SetCacheCapacity bounds processor p's cache to n lines (LRU eviction).
// n <= 0 makes it unbounded again.
func (s *System) SetCacheCapacity(p arch.ProcID, n int) {
	s.cacheOf(p).capacity = n
}

// SetGuardHandler installs the callback invoked when p's guard breaks.
func (s *System) SetGuardHandler(p arch.ProcID, h GuardHandler) {
	s.cacheOf(p).handler = h
}

// ArmGuard starts watching addr on behalf of processor p. The caller
// (the LE/ST logic) enforces the link-capacity and flush-before-rearm
// rules the paper specifies.
func (s *System) ArmGuard(p arch.ProcID, addr arch.Addr) {
	s.checkAddr(addr)
	s.cacheOf(p).arm(addr)
}

// DisarmGuard stops watching addr. Safe to call when not armed.
func (s *System) DisarmGuard(p arch.ProcID, addr arch.Addr) {
	s.checkAddr(addr)
	s.cacheOf(p).disarm(addr)
}

// DisarmAllGuards stops watching everything (context switch, interrupt).
func (s *System) DisarmAllGuards(p arch.ProcID) {
	c := s.cacheOf(p)
	if len(c.guards) > 0 {
		c.guards = c.guards[:0]
		c.dirty = true
	}
}

// Guarded reports whether p's controller watches addr.
func (s *System) Guarded(p arch.ProcID, addr arch.Addr) bool {
	s.checkAddr(addr)
	_, armed := s.cacheOf(p).guardIndex(addr)
	return armed
}

// GuardArmed reports whether p's controller is watching any address and,
// if so, the lowest such address (unique in the paper's single-link
// hardware).
func (s *System) GuardArmed(p arch.ProcID) (arch.Addr, bool) {
	c := s.cacheOf(p)
	if len(c.guards) == 0 {
		return 0, false
	}
	return c.guards[0], true
}

func (s *System) cacheOf(p arch.ProcID) *cache {
	if int(p) < 0 || int(p) >= len(s.caches) {
		panic(fmt.Sprintf("mesi: invalid processor %v", p))
	}
	return &s.caches[p]
}

func (s *System) checkAddr(addr arch.Addr) {
	if int(addr) >= len(s.mem) {
		panic(fmt.Sprintf("mesi: address 0x%x out of range (mem %d words)", uint32(addr), len(s.mem)))
	}
}

// breakGuardIfWatched fires p's guard handler if p is watching addr.
// The guard is disarmed before the handler runs, both to match the paper
// ("the processor clears the LEBit and LEAddr, flushes the store buffer,
// and replies") and to bound recursion when handlers trigger more
// coherence traffic.
func (s *System) breakGuardIfWatched(p arch.ProcID, addr arch.Addr, reason GuardReason) {
	c := &s.caches[p]
	if !c.disarm(addr) {
		return
	}
	s.stats.GuardBreaks++
	if reason != GuardEvict {
		s.stats.GuardBreaksRemote++
	}
	if c.handler != nil {
		c.handler(addr, reason)
	}
}

// touch refreshes LRU state and evicts if the cache is over capacity.
func (s *System) touch(p arch.ProcID, addr arch.Addr, ln *line) {
	s.useTick++
	ln.used(s.useTick)
	c := &s.caches[p]
	if c.capacity <= 0 || c.resident <= c.capacity {
		return
	}
	// Evict the least recently used line other than addr.
	victim := -1
	for a := range c.lines {
		if c.lines[a].state() == Invalid || arch.Addr(a) == addr {
			continue
		}
		if victim < 0 || c.lines[a].lastUse() < c.lines[victim].lastUse() {
			victim = a
		}
	}
	if victim < 0 {
		return // only the protected line present; nothing to evict
	}
	s.evict(p, arch.Addr(victim))
}

func (s *System) evict(p arch.ProcID, addr arch.Addr) {
	s.breakGuardIfWatched(p, addr, GuardEvict)
	c := &s.caches[p]
	if ln := c.lines[addr]; ln.state().dirty() {
		s.writeback(addr, ln.val)
	}
	c.drop(addr)
	s.stats.Evictions++
}

// writeback deposits a dirty line's value in backing memory.
func (s *System) writeback(addr arch.Addr, val arch.Word) {
	s.mem[addr] = val
	s.memDirty = true
	s.stats.Writebacks++
}

// Read performs a coherent load by processor p. It returns the value and
// the cycle cost under the system's cost model. After Read the line is in
// p's cache in Shared or Exclusive state (Exclusive when no peer held a
// copy), which is the "committed read" condition of Section 2.
func (s *System) Read(p arch.ProcID, addr arch.Addr) (arch.Word, int64) {
	s.checkAddr(addr)
	c := s.cacheOf(p)
	if ln := &c.lines[addr]; ln.state() != Invalid {
		s.touch(p, addr, ln)
		return ln.val, s.cfg.Cost.L1Hit
	}

	// Miss: BusRd. Peers holding the line downgrade to Shared; an M peer
	// supplies the data and writes back.
	s.stats.BusReads++
	val, fromCache := s.snoopForRead(p, addr)
	cost := s.cfg.Cost.MemAccess
	if fromCache {
		cost = s.cfg.Cost.CacheTransfer
	}
	state := Shared
	// MSI has no Exclusive state: clean lines are always Shared.
	if s.cfg.Protocol != arch.MSI && !s.anyPeerHolds(p, addr) {
		state = Exclusive
	}
	s.touch(p, addr, c.fill(addr, state, val))
	return val, cost
}

// exclusiveGrant is the state LE leaves a clean line in: Exclusive where
// the protocol has it, Modified under MSI (which has no clean-exclusive
// state — the paper's "adapted to MSI" variant).
func (s *System) exclusiveGrant() State {
	if s.cfg.Protocol == arch.MSI {
		return Modified
	}
	return Exclusive
}

// ReadExclusive performs the paper's LE (load-exclusive): a load that
// leaves the line in p's cache exclusively (Exclusive, or Modified when
// the line was already dirty or the protocol is MSI), with every peer
// copy invalidated.
func (s *System) ReadExclusive(p arch.ProcID, addr arch.Addr) (arch.Word, int64) {
	s.checkAddr(addr)
	c := s.cacheOf(p)
	ln := &c.lines[addr]
	if ln.state() == Exclusive || ln.state() == Modified {
		s.touch(p, addr, ln)
		return ln.val, s.cfg.Cost.L1Hit
	}
	if ln.state() == Owned {
		// MOESI: an Owned line is dirty but shareable; upgrade by
		// invalidating peers, staying dirty (Modified).
		s.stats.BusUpgrades++
		s.snoopForWrite(p, addr)
		if ln.state() != Invalid {
			c.set(ln, Modified, ln.val)
			s.touch(p, addr, ln)
			return ln.val, s.cfg.Cost.CacheTransfer
		}
		// A guard handler run by the snoop wrote addr elsewhere and took
		// our copy: the upgrade lost the bus, so retry as a miss.
	}

	s.stats.BusReadXs++
	val, fromCache := s.snoopForWrite(p, addr)
	cost := s.cfg.Cost.MemAccess
	if fromCache {
		cost = s.cfg.Cost.CacheTransfer
	}
	if ln.state() == Shared {
		// We already had the data; the bus transaction only invalidated
		// peers (BusUpgr). Keep our value.
		val = ln.val
		cost = s.cfg.Cost.CacheTransfer
		s.stats.BusUpgrades++
		c.set(ln, s.exclusiveGrant(), val)
		s.touch(p, addr, ln)
		return val, cost
	}
	s.touch(p, addr, c.fill(addr, s.exclusiveGrant(), val))
	return val, cost
}

// Write performs a coherent store *completion* by processor p: it gains
// Exclusive ownership of the line (invalidating peers) and deposits val,
// leaving the line Modified. This is the moment a store becomes globally
// visible; the TSO machine calls it when draining store-buffer entries.
func (s *System) Write(p arch.ProcID, addr arch.Addr, val arch.Word) int64 {
	s.checkAddr(addr)
	c := s.cacheOf(p)
	switch ln := &c.lines[addr]; ln.state() {
	case Modified, Exclusive:
		c.set(ln, Modified, val)
		s.touch(p, addr, ln)
		return s.cfg.Cost.L1Hit
	case Shared, Owned:
		// BusUpgr: invalidate peers, no data transfer needed (an
		// Owned line may have Shared peers under MOESI).
		s.stats.BusUpgrades++
		s.snoopForWrite(p, addr)
		if ln.state() != Invalid {
			c.set(ln, Modified, val)
			s.touch(p, addr, ln)
			return s.cfg.Cost.CacheTransfer
		}
		// As in ReadExclusive: the upgrade lost the bus, retry as a miss.
	}
	s.stats.BusReadXs++
	_, fromCache := s.snoopForWrite(p, addr)
	cost := s.cfg.Cost.MemAccess
	if fromCache {
		cost = s.cfg.Cost.CacheTransfer
	}
	s.touch(p, addr, c.fill(addr, Modified, val))
	return cost
}

// snoopForRead services a BusRd issued by requester: peers downgrade to
// Shared (M peers write back and supply data). It returns the freshest
// value and whether a peer cache supplied it.
func (s *System) snoopForRead(requester arch.ProcID, addr arch.Addr) (arch.Word, bool) {
	val := s.mem[addr]
	fromCache := false
	for pid := range s.caches {
		p, c := arch.ProcID(pid), &s.caches[pid]
		if p == requester {
			continue
		}
		ln := &c.lines[addr]
		if ln.state() == Invalid {
			continue
		}
		// The peer's controller must consult its guard before honouring
		// the downgrade. The handler may complete stores, changing the
		// line's state/value, so the switch below reads it afterwards.
		s.breakGuardIfWatched(p, addr, GuardDowngrade)
		switch ln.state() {
		case Modified:
			val = ln.val
			fromCache = true
			if s.cfg.Protocol == arch.MOESI {
				// MOESI: stay dirty as Owned, supply data, skip the
				// memory writeback.
				c.set(ln, Owned, ln.val)
			} else {
				s.writeback(addr, ln.val)
				c.set(ln, Shared, ln.val)
			}
			s.stats.Downgrades++
		case Owned:
			// Already dirty-shared: supply data, stay Owned.
			val = ln.val
			fromCache = true
		case Exclusive:
			val = ln.val
			fromCache = true
			c.set(ln, Shared, ln.val)
			s.stats.Downgrades++
		case Shared:
			val = ln.val
			fromCache = true
		}
	}
	return val, fromCache
}

// snoopForWrite services a BusRdX/BusUpgr issued by requester: peers
// invalidate their copies (M peers write back first). It returns the
// freshest value and whether a peer cache supplied it.
func (s *System) snoopForWrite(requester arch.ProcID, addr arch.Addr) (arch.Word, bool) {
	val := s.mem[addr]
	fromCache := false
	for pid := range s.caches {
		p, c := arch.ProcID(pid), &s.caches[pid]
		if p == requester {
			continue
		}
		ln := &c.lines[addr]
		if ln.state() == Invalid {
			continue
		}
		s.breakGuardIfWatched(p, addr, GuardInvalidate)
		if ln.state() == Invalid {
			continue
		}
		if ln.state().dirty() {
			s.writeback(addr, ln.val)
		}
		val = ln.val
		fromCache = true
		c.drop(addr)
		s.stats.Invalidations++
	}
	return val, fromCache
}

func (s *System) anyPeerHolds(p arch.ProcID, addr arch.Addr) bool {
	for pid := range s.caches {
		if arch.ProcID(pid) == p {
			continue
		}
		if s.caches[pid].lines[addr].state() != Invalid {
			return true
		}
	}
	return false
}

// StateOf reports the MESI state of addr in p's cache.
func (s *System) StateOf(p arch.ProcID, addr arch.Addr) State {
	s.checkAddr(addr)
	return s.cacheOf(p).lines[addr].state()
}

// CoherentValue returns the globally visible value of addr: the copy in a
// dirty (Modified or Owned) cache if one exists, otherwise memory. This
// is what a brand-new processor would observe; tests and invariant
// checks use it.
func (s *System) CoherentValue(addr arch.Addr) arch.Word {
	s.checkAddr(addr)
	for i := range s.caches {
		if ln := s.caches[i].lines[addr]; ln.state().dirty() {
			return ln.val
		}
	}
	return s.mem[addr]
}

// MemValue returns the value in backing memory, ignoring caches. Only
// tests should care.
func (s *System) MemValue(addr arch.Addr) arch.Word {
	s.checkAddr(addr)
	return s.mem[addr]
}

// CheckInvariants validates the single-writer/multiple-reader discipline:
// at most one cache holds a line in M or E, and if any cache holds it
// M/E no other cache holds it at all; and each cache's resident count
// matches its line array. It returns a descriptive error on
// violation; the property-based tests call it after random operation
// sequences.
func (s *System) CheckInvariants() error {
	for i := range s.caches {
		c := &s.caches[i]
		n := 0
		for _, l := range c.lines {
			if l.state() != Invalid {
				n++
			}
		}
		if n != c.resident {
			return fmt.Errorf("mesi: cache %d counts %d resident lines but holds %d", i, c.resident, n)
		}
	}
	for a := 0; a < len(s.mem); a++ {
		addr := arch.Addr(a)
		exclusiveOwners := 0 // M or E: no other copy may exist
		dirtyOwners := 0     // M or O: at most one
		holders := 0
		for i := range s.caches {
			ln := s.caches[i].lines[addr]
			if ln.state() == Invalid {
				continue
			}
			holders++
			switch ln.state() {
			case Modified:
				exclusiveOwners++
				dirtyOwners++
			case Exclusive:
				if s.cfg.Protocol == arch.MSI {
					return fmt.Errorf("mesi: Exclusive state under MSI at 0x%x", uint32(addr))
				}
				exclusiveOwners++
			case Owned:
				if s.cfg.Protocol != arch.MOESI {
					return fmt.Errorf("mesi: Owned state under %v at 0x%x", s.cfg.Protocol, uint32(addr))
				}
				dirtyOwners++
			}
		}
		if exclusiveOwners > 1 || dirtyOwners > 1 {
			return fmt.Errorf("mesi: %d exclusive / %d dirty owners of 0x%x",
				exclusiveOwners, dirtyOwners, uint32(addr))
		}
		if exclusiveOwners == 1 && holders > 1 {
			return fmt.Errorf("mesi: line 0x%x held M/E but shared by %d caches", uint32(addr), holders)
		}
	}
	return nil
}

// Clone deep-copies the system, minus guard handlers (which close over a
// particular machine); the model checker re-installs handlers after
// cloning.
func (s *System) Clone() *System {
	ns := NewSystem(s.cfg)
	ns.CopyFrom(s)
	return ns
}

// CopyFrom overwrites s with src's coherence state, reusing s's memory
// and cache-line slices. Guard handlers installed on s are preserved (they
// close over the owning machine, which is exactly what the model
// checker's recycled machines need). Both systems must have been built
// for the same configuration shape.
func (s *System) CopyFrom(src *System) {
	if len(s.mem) != len(src.mem) || len(s.caches) != len(src.caches) {
		panic("mesi: CopyFrom across different system shapes")
	}
	s.cfg = src.cfg
	copy(s.mem, src.mem)
	s.useTick = src.useTick
	s.stats = src.stats
	s.memDirty = src.memDirty
	for i := range src.caches {
		sc, dc := &src.caches[i], &s.caches[i]
		copy(dc.lines, sc.lines)
		dc.resident = sc.resident
		dc.capacity = sc.capacity
		dc.guards = append(dc.guards[:0], sc.guards...)
		dc.dirty = sc.dirty
		// dc.handler deliberately kept: it belongs to s's machine.
	}
}

// The dirty flags let a caller that caches per-component encodings (the
// state-key cache on tso.Machine) re-encode only what an action wrote.
// The contract: while CacheDirty(i) is false, FingerprintCache(i)
// encodes byte-identically to when ClearDirty was last called (or the
// system was built), and likewise MemDirty for FingerprintMem. Every
// write to a line's state or value, a guard list or a memory word sets
// the flag at the write; a flag may be set by a write that changed
// nothing. CopyFrom copies the source's flags along with its state, so
// the copy stands where the source stood against the source's last
// ClearDirty; CopyRenamedFrom sets them all.

// CacheDirty reports whether cache i may have changed since ClearDirty.
func (s *System) CacheDirty(i int) bool { return s.caches[i].dirty }

// MemDirty reports whether backing memory may have changed since
// ClearDirty.
func (s *System) MemDirty() bool { return s.memDirty }

// ClearDirty clears every dirty flag.
func (s *System) ClearDirty() {
	s.memDirty = false
	for i := range s.caches {
		s.caches[i].dirty = false
	}
}

// Fingerprint appends a canonical encoding of the coherence-visible state
// (memory, plus per-cache line states/values in address order and guard
// registers) to dst. LRU tick values are excluded so that states
// differing only in access history hash identically.
func (s *System) Fingerprint(dst []byte) []byte {
	dst = s.FingerprintMem(dst)
	for i := range s.caches {
		dst = s.FingerprintCache(i, dst)
	}
	return dst
}

// FingerprintMem appends the backing-memory component of Fingerprint:
// every memory word in address order. It is one of the interned
// components of the collapse-compressed state encoding (tso.Collapser).
func (s *System) FingerprintMem(dst []byte) []byte {
	for _, w := range s.mem {
		dst = append(dst, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return dst
}

// FingerprintCache appends cache i's component of Fingerprint: its
// non-Invalid lines in address order and armed guard addresses. The
// collapse compressor interns each cache's encoding separately, so a
// processor whose cache is unchanged between states contributes one
// small table index instead of re-hashed bytes. Addresses take two bytes,
// which arch.MaxMemWords guarantees is enough.
func (s *System) FingerprintCache(i int, dst []byte) []byte {
	c := &s.caches[i]
	dst = append(dst, byte(c.resident))
	for a, n := 0, 0; n < c.resident; a++ {
		l := &c.lines[a]
		if l.state() == Invalid {
			continue
		}
		n++
		dst = append(dst, byte(a), byte(a>>8), byte(l.state()),
			byte(l.val), byte(l.val>>8), byte(l.val>>16), byte(l.val>>24))
	}
	dst = append(dst, byte(len(c.guards)))
	for _, a := range c.guards {
		dst = append(dst, byte(a), byte(a>>8))
	}
	return dst
}

// VisitLines calls f for every non-Invalid line of processor p's cache,
// in address order. The symmetry canonicalizer uses it to build
// renaming-invariant per-processor signatures without copying state.
func (s *System) VisitLines(p arch.ProcID, f func(addr arch.Addr, st State, val arch.Word)) {
	for a, l := range s.cacheOf(p).lines {
		if l.state() != Invalid {
			f(arch.Addr(a), l.state(), l.val)
		}
	}
}

// VisitGuards calls f for every address p's controller watches, in
// address order.
func (s *System) VisitGuards(p arch.ProcID, f func(addr arch.Addr)) {
	for _, a := range s.cacheOf(p).guards {
		f(a)
	}
}

// CopyRenamedFrom overwrites s with a renamed copy of src's coherence
// state: cache i's content lands in cache slot slotOf[i], every address
// a is rewritten to addrOf[a] (a permutation of the address space), and
// every stored value is filtered through valOf keyed by the ORIGINAL
// address (so pid-valued words can be relabeled consistently). touched
// lists every address the renaming does anything to — addrOf is the
// identity and valOf passes values through everywhere else, and addrOf
// maps touched onto itself — so memory and each cache are copied
// wholesale and only those words rewritten. Guard handlers installed on
// s are preserved, like CopyFrom; both systems must share a shape. The
// symmetry canonicalizer uses it to apply a processor permutation to a
// scratch machine that is only ever fingerprinted, never stepped.
func (s *System) CopyRenamedFrom(src *System, slotOf []int, addrOf, touched []arch.Addr, valOf func(arch.Addr, arch.Word) arch.Word) {
	if len(s.mem) != len(src.mem) || len(s.caches) != len(src.caches) {
		panic("mesi: CopyRenamedFrom across different system shapes")
	}
	s.cfg = src.cfg
	s.useTick = src.useTick
	s.stats = src.stats
	copy(s.mem, src.mem)
	for _, a := range touched {
		s.mem[addrOf[a]] = valOf(a, src.mem[a])
	}
	s.memDirty = true
	for i := range src.caches {
		sc, dc := &src.caches[i], &s.caches[slotOf[i]]
		dc.dirty = true
		dc.resident = sc.resident
		dc.capacity = sc.capacity
		copy(dc.lines, sc.lines)
		for _, a := range touched {
			l := sc.lines[a]
			if l.state() != Invalid {
				l.val = valOf(a, l.val)
			}
			dc.lines[addrOf[a]] = l
		}
		dc.guards = dc.guards[:0]
		for _, a := range sc.guards {
			dc.arm(addrOf[a])
		}
	}
}
