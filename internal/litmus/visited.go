package litmus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fault"
)

// This file is the engine's one visited set: 256 (one for one worker)
// lock-striped flat open-addressed tables of 24-byte slots. A 64-bit hash
// of the state key picks the stripe (low 8 bits) and the probe start (the
// rest). What a slot matches on besides that hash is the set's one mode:
//
//   - Hashed keys (the default): a second independent 64-bit hash, an
//     effective 128-bit key, so a state sharing only the primary hash
//     with another takes the next probe slot instead of silently merging
//     with it. Options.VerifyVisited additionally keys an authoritative
//     map by the full fingerprint and counts what the hashed keys would
//     have merged.
//   - Exact keys (the plan's key width, resolve): the key is the
//     fixed-width collapsed tuple (tso.Collapser). The stripe owns an
//     arena of them, the slot's second word holds the key's arena
//     index, and a match is the primary hash AND bytes.Equal on the
//     arena key — no merge risk at all. Exactness is that one column of
//     the table; claim, seen, finalize, growth and the sleep-set protocol
//     are the same code in both modes.
//
// Tables start unallocated, double at ¾ load (so they run ⅜ to ¾ full,
// plus one stripe's old table while it doubles) and hold no pointers.
// The arena grows on its own, in segments that double up to 4,096 keys
// and never move (exactStripe), so a doubling rehashes only the 24-byte
// slots and an exact state costs its 24-byte slot share plus one to two
// keyWidths of arena (at most one segment's slack past 8,192 keys),
// each key written once.
//
// Table heads. In a multi-worker set each stripe's table address and
// mask are mirrored in a tableHead outside the stripe, rewritten only
// when the table is replaced (growth, a spill's rebuild, close). A
// worker prefetches the home slot and the stripe's lock of the frame it
// will claim next from the head alone: reading the stripe would pull in
// the line every worker writes on every claim. A one-stripe set has one
// worker, which reads its stripe directly and allocates no heads.
//
// Records. Either key is fixed-width: the 16-byte h1 ‖ h2 pair,
// little-endian, or the collapsed tuple. So an entry serializes as one
// fixed-width record, key ‖ 4-byte little-endian pruned mask
// (appendRecord), and a run of them sorted on the key bytes answers
// membership by binary search. Spill segments and checkpoint snapshots
// are both such records, byte for byte: a snapshot appends the segments
// verbatim.
//
// Spilling. Under Options.MemBudget, in either key mode, a stripe's
// finalized entries leave its table as one sorted run of records in a
// spill segment — which is what degrades an over-budget run to
// slower-but-exact instead of truncated-and-partial. The segments and
// the eviction recency are the stripe's spill column, allocated only
// under a budget.
// Only FINALIZED entries spill (pruned is settled, sleepAcc is dead). A
// claim-winning entry under Options.Reduction is not finalized until its
// expansion is chosen, and the winner holds the frame until then, so an
// entry can never spill between its claim and its finalize. An eviction
// writes the run, then rebuilds the stripe's table and arena from the
// unfinalized remainder: no tombstones. Spilled entries still take full
// part in the sleep-set protocol: a duplicate arrival reads pruned from
// the record, re-expands the difference its sleep set cannot justify,
// and shrinks the record's pruned in place (the segments are mapped
// read-write; mutations happen under the owning stripe's lock). Segments
// are immutable in membership — never compacted or merged — so a stripe
// that spills repeatedly accumulates a run list; lookups search
// newest-first. Spill I/O failure is not fatal: the set disables the
// budget and the run completes in memory.

// visitedStripes, a multi-worker set's stripe count, must be a power of two.
const visitedStripes = 256

// slot is one cell of a stripe's flat table. h2 is the second hash in
// hashed mode and the key's arena index in exact mode. sleepAcc and meta
// are the state's sleep-set protocol state, used by the reduction: until
// the claiming worker finalizes the entry, sleepAcc accumulates
// (intersects) the sleep masks of every path that arrived at the state;
// afterwards the pruned mask in meta's low bits records which enabled
// actions the state's expansion withheld, so later arrivals with smaller
// sleep sets can re-expand exactly the difference. meta carries the
// occupied and finalized bits above the pruned mask; a zero meta is an
// empty slot, so every key value, (0,0) included, is storable.
type slot struct {
	h1, h2   uint64
	sleepAcc actionMask
	meta     uint32
}

const (
	slotOccupied  = 1 << 31
	slotFinalized = 1 << 30
	slotPruned    = slotFinalized - 1
	// minSlots is a stripe's first allocation: synthesis issues thousands
	// of explorations that put about one state in each stripe.
	minSlots = 4
)

// An action mask must fit under meta's two flag bits.
const _ = uint(30 - 2*maxReductionProcs)

// A stripe is exactly one cache line and a slot exactly 24 bytes: a
// multi-worker Explore allocates 256 stripes, so a wider one costs 16 KB.
const (
	_ = uint(64 - unsafe.Sizeof(visitedStripe{}))
	_ = uint(unsafe.Sizeof(visitedStripe{}) - 64)
	_ = uint(24 - unsafe.Sizeof(slot{}))
	_ = uint(unsafe.Sizeof(slot{}) - 24)
)

type visitedStripe struct {
	mu sync.Mutex
	// slots is the open-addressed table: power-of-two length, linear
	// probing from h1>>8 (the low 8 bits chose the stripe), never more
	// than ¾ full, nil until the stripe's first insert.
	slots []slot
	n     int // occupied slots
	// full is the authoritative fingerprint-keyed map kept only under
	// Options.VerifyVisited with hashed keys, where the table above is
	// demoted to collision accounting.
	full map[string]*slot
	// x holds the exact-mode columns; nil in hashed mode.
	x *exactStripe
	// sp holds the spill column; nil without a memory budget. It takes
	// the word that would otherwise pad the stripe to its cache line.
	sp *spillColumn
}

// exactStripe is what a stripe owns besides its table when keys are
// exact: the key arena. The stripe's n resident keys sit back to back in
// insertion order, key i at arena index i, across segments of 4, 4, 8,
// 16, … keys up to arenaSegKeys, then arenaSegKeys each (segment k in
// 1..11 holds indices 2^(k+1) to 2^(k+2)-1, and from 8,192 on each
// segment holds the next arenaSegKeys), each allocated whole when its
// first key arrives and never moved. So a slot's index stays valid
// across every doubling of the table, and only a spill's rebuild
// (retable dropping finalized entries) compacts the arena into fresh
// segments. The cap bounds the slack to one segment: doubling segments
// all the way would let a stripe hold twice its keys' bytes.
type exactStripe struct {
	segs [][]byte
	kw   int // key width
}

// arenaSegKeys is the largest arena segment, in keys; segment 11 is the
// first of that size, and segments 0 to 11 hold 2·arenaSegKeys keys.
const arenaSegKeys = 4096

// arenaSeg locates arena index i: its segment and its key offset there.
func arenaSeg(i int) (seg, off int) {
	if i >= 2*arenaSegKeys {
		// Segment 12 + (i - 2·arenaSegKeys)/arenaSegKeys.
		return i/arenaSegKeys + 10, i % arenaSegKeys
	}
	if seg = bits.Len(uint(i) >> 2); seg > 0 {
		i -= 2 << seg
	}
	return seg, i
}

// segKeys is how many keys arena segment seg holds.
func segKeys(seg int) int {
	switch {
	case seg == 0:
		return 4
	case seg >= 11:
		return arenaSegKeys
	}
	return 2 << seg
}

// keyAt returns the arena key at index i.
func (x *exactStripe) keyAt(i int) []byte {
	seg, off := arenaSeg(i)
	return x.segs[seg][off*x.kw:][:x.kw]
}

// store writes key at arena index i, the next free one, allocating its
// segment when i opens one, and returns the bytes that allocated.
func (x *exactStripe) store(i int, key []byte) int64 {
	seg, off := arenaSeg(i)
	var grew int64
	if off == 0 {
		n := segKeys(seg)
		x.segs = append(x.segs, make([]byte, n*x.kw))
		grew = int64(n * x.kw)
	}
	copy(x.segs[seg][off*x.kw:], key)
	return grew
}

// bytes is what the arena's segments hold.
func (x *exactStripe) bytes() int {
	b := 0
	for _, seg := range x.segs {
		b += len(seg)
	}
	return b
}

// spillColumn is what a stripe owns besides its table under a memory
// budget.
type spillColumn struct {
	segs  []*spillSeg // spilled runs, oldest first
	touch uint64      // tick of the most recent claim (eviction recency)
}

// key returns the arena key sl points at.
func (x *exactStripe) key(sl *slot) []byte { return x.keyAt(int(sl.h2)) }

// pairKey writes a hashed key's record bytes, h1 ‖ h2 little-endian,
// into buf.
func pairKey(buf *[hashedKeyWidth]byte, h1, h2 uint64) []byte {
	binary.LittleEndian.PutUint64(buf[:8], h1)
	binary.LittleEndian.PutUint64(buf[8:], h2)
	return buf[:]
}

// recKey is the record key of the entry in sl: its arena key, or its
// hash pair encoded into buf.
func (s *visitedStripe) recKey(sl *slot, buf *[hashedKeyWidth]byte) []byte {
	if s.x != nil {
		return s.x.key(sl)
	}
	return pairKey(buf, sl.h1, sl.h2)
}

// appendRecord appends sl's record, key ‖ pruned, to dst: the one
// encoder of spill segments and snapshots alike.
func (s *visitedStripe) appendRecord(dst []byte, sl *slot) []byte {
	var buf [hashedKeyWidth]byte
	dst = append(dst, s.recKey(sl, &buf)...)
	return binary.LittleEndian.AppendUint32(dst, sl.meta&slotPruned)
}

// findSpilled searches the spill column's runs, newest first, for the
// record of the state keyed (h1, h2, key), and returns the segment
// holding it and the offset of the record's pruned field; a nil segment
// when none does. The stripe must have a spill column.
func (s *visitedStripe) findSpilled(h1, h2 uint64, key []byte) (*spillSeg, int) {
	var buf [hashedKeyWidth]byte
	if s.x == nil {
		key = pairKey(&buf, h1, h2)
	}
	for i := len(s.sp.segs) - 1; i >= 0; i-- {
		if off, ok := s.sp.segs[i].find(key); ok {
			return s.sp.segs[i], off + len(key)
		}
	}
	return nil, 0
}

// find probes for a key: (h1,h2) in hashed mode, h1 and the key bytes in
// exact mode. It returns the slot holding it, or else the empty slot
// ending its probe run, where it would go (nil in a never-allocated
// table), with collided reporting whether a different state sharing h1
// was passed on the way.
func (s *visitedStripe) find(h1, h2 uint64, key []byte) (sl *slot, found, collided bool) {
	if len(s.slots) == 0 {
		return nil, false, false
	}
	mask := uint64(len(s.slots) - 1)
	for i := h1 >> 8; ; i++ {
		sl = &s.slots[i&mask]
		if sl.meta&slotOccupied == 0 {
			return sl, false, collided
		}
		if sl.h1 == h1 {
			if x := s.x; x == nil && sl.h2 == h2 || x != nil && bytes.Equal(x.key(sl), key) {
				return sl, true, false
			}
			collided = true
		}
	}
}

// put fills sl, the empty slot find returned for this key, and returns
// the bytes the arena grew by storing the key.
func (s *visitedStripe) put(sl *slot, h1, h2 uint64, key []byte, sleepAcc actionMask, meta uint32) (grew int64) {
	if x := s.x; x != nil {
		h2 = uint64(s.n)
		grew = x.store(s.n, key)
	}
	*sl = slot{h1: h1, h2: h2, sleepAcc: sleepAcc, meta: slotOccupied | meta}
	s.n++
	return grew
}

// slotsFor is the smallest table that holds n keys within the ¾ load
// bound; 0 for no keys.
func slotsFor(n int) int {
	if n == 0 {
		return 0
	}
	nslots := minSlots
	for n*4 > nslots*3 {
		nslots *= 2
	}
	return nslots
}

// bytes is what the stripe's table and arena actually hold.
func (s *visitedStripe) bytes() int64 {
	b := len(s.slots) * int(unsafe.Sizeof(slot{}))
	if s.x != nil {
		b += s.x.bytes()
	}
	return int64(b)
}

// Retired tables of minPooled to maxPooled slots wait, up to maxPooled
// slots of each length (≈7.5 MB), for a table of that length. Unlike a
// sync.Pool the lists survive collections, so recycling is repeatable.
const minPooled, maxPooled = 64, 64 << 9

var tableMu sync.Mutex
var tableFree = map[int][][]slot{} // by length, under tableMu

// newSlots returns an empty table of nslots slots, recycled if it can.
func newSlots(nslots int) []slot {
	if nslots >= minPooled {
		tableMu.Lock()
		if l := tableFree[nslots]; len(l) > 0 {
			t := l[len(l)-1]
			l[len(l)-1], tableFree[nslots] = nil, l[:len(l)-1]
			tableMu.Unlock()
			clear(t)
			return t
		}
		tableMu.Unlock()
	}
	return make([]slot, nslots)
}

// retireSlots pools a table no one reads if its length's list has room.
func retireSlots(t []slot) {
	if n := len(t); n >= minPooled {
		tableMu.Lock()
		if l := tableFree[n]; (len(l)+1)*n <= maxPooled {
			tableFree[n] = append(l, t)
		}
		tableMu.Unlock()
	}
}

// retable moves the stripe's entries, all of them or only the
// unfinalized ones, into a fresh table of nslots slots, retiring the old.
// Moving all of them keeps every slot as it is, arena index included;
// dropping the finalized ones (a spill) also compacts the arena, storing
// the survivors' keys into fresh segments.
func (s *visitedStripe) retable(nslots int, dropFinalized bool) {
	old := s.slots
	defer retireSlots(old)
	s.slots = nil
	if nslots > 0 {
		s.slots = newSlots(nslots)
	}
	var arena exactStripe
	if dropFinalized {
		s.n = 0
		if x := s.x; x != nil {
			arena, x.segs = *x, nil
		}
	}
	mask := uint64(nslots - 1)
	for i := range old {
		o := &old[i]
		if o.meta&slotOccupied == 0 || dropFinalized && o.meta&slotFinalized != 0 {
			continue
		}
		j := o.h1 >> 8
		for s.slots[j&mask].meta&slotOccupied != 0 {
			j++
		}
		if !dropFinalized {
			s.slots[j&mask] = *o
			continue
		}
		var key []byte
		if s.x != nil {
			key = arena.key(o)
		}
		s.put(&s.slots[j&mask], o.h1, o.h2, key, o.sleepAcc, o.meta)
	}
}

// reserve makes room for one more key, doubling the table when the
// insert would take it past ¾ load, and returns the bytes the table grew
// by.
func (s *visitedStripe) reserve() int64 {
	if (s.n+1)*4 <= len(s.slots)*3 {
		return 0
	}
	before := s.bytes()
	s.retable(slotsFor(s.n+1), false)
	return s.bytes() - before
}

// tableHead is a stripe's table as prefetch reads it: the address of
// its first slot (0 while it has none) and its length minus one. It is
// rewritten only when the stripe's table is replaced, so unlike the
// stripe's own line, which every claim writes, it stays shared in every
// core's cache. A torn read costs one useless hint, never a fault.
type tableHead struct {
	base atomic.Uintptr
	mask atomic.Uint64
}

// visitedSet is the engine's visited set.
type visitedSet struct {
	stripes []visitedStripe
	mask    uint64      // len(stripes) - 1
	pooled  atomic.Bool // some stripe made a table close should retire
	// heads is each stripe's tableHead; nil in a one-stripe set, whose
	// one worker is the only core that writes the stripe's line.
	heads *[visitedStripes]tableHead
	// keyWidth is the exact key's width; 0 selects hashed keys.
	keyWidth int
	// bornFinal is slotFinalized when no finalize call will ever come (no
	// reducer, or sleep sets alone): a winning claim inserts its entry
	// finalized, with the arriving sleep mask as pruned, and immediately
	// eligible to spill. Zero otherwise.
	bornFinal uint32

	// The rest is the memory budget (Options.MemBudget). resident and
	// peak count the bytes the tables and arenas actually hold, under a
	// budget or with exact keys.
	budget   int64
	tick     atomic.Uint64
	resident atomic.Int64
	peak     atomic.Int64

	spillMu       sync.Mutex // serializes spill passes
	disabled      atomic.Bool
	spillEvents   atomic.Uint64
	spilledStates atomic.Uint64
	spilledBytes  atomic.Int64
	// spillFailures counts segment-creation failures (real I/O errors or
	// fault.SpillWrite injections); each one disables the budget.
	spillFailures atomic.Uint64
	faults        *fault.Injector
}

// init sets the set up for nworkers (one stripe for one) with exact keys
// of keyWidth bytes, or hashed keys when keyWidth is 0 (audit then adds
// the VerifyVisited maps), and with spill columns when budget is
// positive. It allocates no table: most runs are small.
func (vs *visitedSet) init(nworkers, keyWidth int, budget int64, bornFinal, audit bool) {
	n := visitedStripes
	if nworkers == 1 {
		n = 1
	}
	vs.stripes, vs.mask, vs.heads = make([]visitedStripe, n), uint64(n-1), nil
	if n > 1 {
		vs.heads = new([visitedStripes]tableHead)
	}
	vs.keyWidth, vs.budget = keyWidth, budget
	if bornFinal {
		vs.bornFinal = slotFinalized
	}
	var xs []exactStripe
	if keyWidth > 0 {
		xs = make([]exactStripe, n)
	}
	var sps []spillColumn
	if budget > 0 {
		sps = make([]spillColumn, n)
	}
	for i := range vs.stripes {
		s := &vs.stripes[i]
		if xs != nil {
			xs[i].kw = keyWidth
			s.x = &xs[i]
		} else if audit {
			s.full = make(map[string]*slot)
		}
		if sps != nil {
			s.sp = &sps[i]
		}
	}
}

// addResident adjusts the resident-byte gauge and tracks its peak.
func (vs *visitedSet) addResident(delta int64) {
	n := vs.resident.Add(delta)
	for {
		p := vs.peak.Load()
		if n <= p || vs.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// table is the address of s's first slot, 0 while it has none, and
// its length minus one.
func (s *visitedStripe) table() (base uintptr, mask uint64) {
	if len(s.slots) > 0 {
		base = uintptr(unsafe.Pointer(&s.slots[0]))
	}
	return base, uint64(len(s.slots) - 1)
}

// setHead republishes stripe i's table in its head, if the set has heads.
func (vs *visitedSet) setHead(i uint64) {
	if vs.heads != nil {
		base, mask := vs.stripes[i].table()
		vs.heads[i].base.Store(base)
		vs.heads[i].mask.Store(mask)
	}
}

// prefetch hints the lines a claim of a key hashing to h1 touches first:
// its home slot, with the next line, which a 24-byte slot can straddle
// into, and, for writing, its stripe's lock. It reads the stripe's head,
// never the stripe, unless the set has one stripe and so one worker.
func (vs *visitedSet) prefetch(h1 uint64) {
	i := h1 & vs.mask
	var base uintptr
	var mask uint64
	if h := vs.heads; h != nil {
		base, mask = h[i].base.Load(), h[i].mask.Load()
	} else {
		base, mask = vs.stripes[i].table()
	}
	if base != 0 {
		a := base + uintptr((h1>>8)&mask)*unsafe.Sizeof(slot{})
		prefetch(a)
		prefetch(a + 64)
	}
	prefetchW(uintptr(unsafe.Pointer(&vs.stripes[i])))
}

// add inserts a key that find did not find, sl being the empty slot it
// returned: the table doubles first when the insert would overfill it,
// and the arena takes a new segment when the key opens one.
func (vs *visitedSet) add(s *visitedStripe, sl *slot, h1, h2 uint64, key []byte, sleepAcc actionMask, meta uint32) {
	grew := s.reserve()
	if grew != 0 {
		if len(s.slots) >= minPooled {
			vs.pooled.Store(true)
		}
		vs.setHead(h1 & vs.mask)
		sl, _, _ = s.find(h1, h2, key)
	}
	if grew += s.put(sl, h1, h2, key, sleepAcc, meta); grew != 0 && (s.x != nil || s.sp != nil) {
		// Read by the budget and the exact mode's gauges only: an
		// unbudgeted hashed run, synthesis's thousands of small
		// explorations, skips the contended atomics.
		vs.addResident(grew)
	}
}

// bornMeta is the meta bits a winning claim arriving with sleep mask z
// inserts: finalized with pruned z when the run finalizes at claim (the
// winner expands every enabled action z does not cover, so z is what it
// withholds), none otherwise.
func (vs *visitedSet) bornMeta(z actionMask) uint32 {
	if vs.bornFinal == 0 {
		return 0
	}
	return vs.bornFinal | uint32(z)
}

// claimStatus is the outcome of a visited-set claim.
type claimStatus uint8

const (
	claimWon claimStatus = iota
	claimDup
	claimTruncated
)

// dupMerge folds a re-arrival with sleep mask z into an existing entry,
// returning the actions the arriving path needs re-expanded: everything
// the first visit withheld that this path's sleep set does not cover.
func dupMerge(sl *slot, z actionMask) actionMask {
	if sl.meta&slotFinalized == 0 {
		sl.sleepAcc &= z
		return 0
	}
	missing := actionMask(sl.meta&slotPruned) &^ z
	sl.meta &^= uint32(missing)
	return missing
}

// claim records the state with hash pair (h1,h2) and key (the exact key;
// with hashed keys nil, or under VerifyVisited the full fingerprint) as
// visited. Exactly one caller per distinct state wins; the states counter
// is incremented under the stripe lock, so Result.States never overshoots
// maxStates — the claim that would exceed the budget inserts nothing and
// returns
// claimTruncated. For duplicates the returned mask lists previously
// pruned actions the arriving sleep set z requires.
func (e *engine) claim(h1, h2 uint64, key []byte, z actionMask) (claimStatus, actionMask) {
	vs := &e.visited
	s := &vs.stripes[h1&vs.mask]
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.sp != nil {
		s.sp.touch = vs.tick.Add(1)
	}
	if s.full != nil {
		// VerifyVisited: the full-fingerprint map decides identity; the
		// hashed table runs alongside purely to count what it would have
		// merged.
		if fe := s.full[string(key)]; fe != nil {
			return claimDup, dupMerge(fe, z)
		}
	}
	sl, found, collided := s.find(h1, h2, key)
	if found && s.full == nil {
		return claimDup, dupMerge(sl, z)
	}
	if s.sp != nil {
		if seg, off := s.findSpilled(h1, h2, key); seg != nil {
			// Spilled entries are always finalized; run the finalized arm
			// of dupMerge against the record's pruned field in place.
			pruned := actionMask(seg.prunedAt(off))
			missing := pruned &^ z
			if missing != 0 {
				seg.setPrunedAt(off, uint32(pruned&z))
			}
			return claimDup, missing
		}
	}
	if !e.bumpStates() {
		return claimTruncated, 0
	}
	if found {
		// Reachable only under VerifyVisited: a new fingerprint whose full
		// 128-bit key is taken.
		e.verifyCollisions.Add(1)
	} else {
		if collided {
			// Two distinct states share h1. The second hash (or the exact
			// key) keeps them apart where a single-key set would have
			// silently merged them.
			e.h1Collisions.Add(1)
		}
		vs.add(s, sl, h1, h2, key, z, vs.bornMeta(z))
	}
	if s.full != nil {
		s.full[string(key)] = &slot{sleepAcc: z, meta: slotOccupied | vs.bornMeta(z)}
	}
	return claimWon, 0
}

// seen reports whether the state is already in the visited set, without
// claiming it. The reduction's cycle proviso probes ample successors
// with it: a probe that runs after the prober's own claim (program
// order, serialized by the stripe locks) is guaranteed to observe every
// earlier claim, which is what the no-ignoring argument in reduce.go
// needs.
func (e *engine) seen(h1, h2 uint64, key []byte) bool {
	s := &e.visited.stripes[h1&e.visited.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full != nil {
		return s.full[string(key)] != nil
	}
	if _, found, _ := s.find(h1, h2, key); found || s.sp == nil {
		return found
	}
	seg, _ := s.findSpilled(h1, h2, key)
	return seg != nil
}

// bumpStates counts a new state against the budget, rolling back and
// cancelling the exploration when it would exceed maxStates. Called with
// the stripe lock held, immediately before the insert it guards.
func (e *engine) bumpStates() bool {
	n := e.states.Add(1)
	if n > e.maxStates {
		e.states.Add(-1)
		e.truncated.Store(true)
		e.cancel.Store(true)
		return false
	}
	if c := e.ck; c != nil && c.opts.EveryStates > 0 && n%int64(c.opts.EveryStates) == 0 {
		c.req.Store(true)
	}
	return true
}

// finalizeHook, nil outside tests, is called by every finalize.
var finalizeHook func()

// finalize publishes the claiming worker's chosen persistent set tmask
// on the state's visited entry and retrieves the merged sleep mask.
// Between claim and finalize other paths may have reached the state;
// their sleep masks were intersected into sleepAcc, so the winner
// expands T minus the returned mask, what it withholds from tmask
// becomes pruned, and every such arrival is covered. The entry is
// necessarily still resident: only finalized entries spill, and this
// call is what finalizes it. A non-zero full is the mask of every
// enabled action, published in place of tmask when the merged sleep
// mask covers all of it: the winner then expands fully (reduce.go,
// "Asleep ample sets"), and deciding that here, under the stripe lock,
// keeps a later arrival from reading a pruned mask the winner did not
// withhold.
func (e *engine) finalize(h1, h2 uint64, key []byte, tmask, full actionMask) actionMask {
	if finalizeHook != nil {
		finalizeHook()
	}
	s := &e.visited.stripes[h1&e.visited.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	var sl *slot
	if s.full != nil {
		sl = s.full[string(key)]
	} else if f, found, _ := s.find(h1, h2, key); found {
		sl = f
	}
	if sl == nil {
		return 0
	}
	z := sl.sleepAcc
	if full != 0 && tmask&^z == 0 {
		tmask = full
	}
	sl.meta = slotOccupied | slotFinalized | uint32(tmask&z)
	return z
}

// maybeSpill brings the set back under budget by evicting the coldest
// stripes' finalized entries to spill segments. Called by claim winners
// outside any stripe lock; a TryLock keeps concurrent winners from
// stacking up behind one spill pass.
func (vs *visitedSet) maybeSpill() {
	if vs.budget <= 0 || vs.disabled.Load() || vs.resident.Load() <= vs.budget {
		return
	}
	if !vs.spillMu.TryLock() {
		return
	}
	defer vs.spillMu.Unlock()

	type cand struct {
		i     uint64
		touch uint64
	}
	var cands []cand
	for i := range vs.stripes {
		s := &vs.stripes[i]
		s.mu.Lock()
		if s.n > 0 {
			cands = append(cands, cand{uint64(i), s.sp.touch})
		}
		s.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].touch < cands[j].touch })
	for _, c := range cands {
		if vs.resident.Load() <= vs.budget || vs.disabled.Load() {
			return
		}
		vs.spillStripe(c.i)
	}
}

// spillStripe moves stripe i's finalized entries into one spill segment
// of records sorted on their key bytes and rebuilds its table from the
// rest. On segment-creation failure the budget is disabled for the rest
// of the run (exploration continues, in memory, exact).
func (vs *visitedSet) spillStripe(i uint64) {
	s := &vs.stripes[i]
	s.mu.Lock()
	defer s.mu.Unlock()

	var fin []*slot
	for i := range s.slots {
		if s.slots[i].meta&slotFinalized != 0 {
			fin = append(fin, &s.slots[i])
		}
	}
	if len(fin) == 0 {
		return
	}
	var ka, kb [hashedKeyWidth]byte
	sort.Slice(fin, func(i, j int) bool { return bytes.Compare(s.recKey(fin[i], &ka), s.recKey(fin[j], &kb)) < 0 })
	buf := make([]byte, 0, len(fin)*(vs.recKeyWidth()+4))
	for _, sl := range fin {
		buf = s.appendRecord(buf, sl)
	}
	var seg *spillSeg
	var err error
	if vs.faults.At(fault.SpillWrite) {
		err = errors.New("litmus: injected spill-write failure")
	} else {
		seg, err = newSpillSeg(buf)
	}
	if err != nil {
		vs.spillFailures.Add(1)
		vs.disabled.Store(true)
		return
	}
	s.sp.segs = append(s.sp.segs, seg)
	before := s.bytes()
	s.retable(slotsFor(s.n-len(fin)), true)
	vs.setHead(i)
	vs.addResident(s.bytes() - before)
	vs.spillEvents.Add(1)
	vs.spilledStates.Add(uint64(len(fin)))
	vs.spilledBytes.Add(int64(len(buf)))
}

// hashedKeyWidth is the width of a hashed-mode record key: the slot's
// h1 ‖ h2 pair, little-endian. No collapsed tuple is 16 bytes wide
// (tso.CollapsedWidth is odd), so a record's key width alone says which
// keys a checkpoint file holds.
const hashedKeyWidth = 16

// recKeyWidth is the key width of the set's records.
func (vs *visitedSet) recKeyWidth() int {
	if vs.keyWidth == 0 {
		return hashedKeyWidth
	}
	return vs.keyWidth
}

// spillSegs is the stripe's spilled runs; none without a budget.
func (s *visitedStripe) spillSegs() []*spillSeg {
	if s.sp == nil {
		return nil
	}
	return s.sp.segs
}

// snapshotRecords serializes every visited entry — resident slots
// through appendRecord, spilled segments verbatim, which are the same
// records. Callers must have quiesced the run (the checkpoint barrier
// does); the stripe locks are taken only against torn reads. Entries
// that are still unfinalized at the barrier are terminal states under
// Reduction (their winner returned without a finalize call, pruned is
// zero and will stay zero), so recording them as finalized-with-zero-
// pruned is behaviorally identical. Returns the records and the entry
// count.
func (vs *visitedSet) snapshotRecords() ([]byte, int) {
	recWidth := vs.recKeyWidth() + 4
	count := 0
	for i := range vs.stripes {
		s := &vs.stripes[i]
		s.mu.Lock()
		count += s.n
		for _, seg := range s.spillSegs() {
			count += len(seg.data) / recWidth
		}
		s.mu.Unlock()
	}
	out := make([]byte, 0, count*recWidth)
	for i := range vs.stripes {
		s := &vs.stripes[i]
		s.mu.Lock()
		for j := range s.slots {
			if sl := &s.slots[j]; sl.meta&slotOccupied != 0 {
				out = s.appendRecord(out, sl)
			}
		}
		for _, seg := range s.spillSegs() {
			out = append(out, seg.data...)
		}
		s.mu.Unlock()
	}
	return out, count
}

// restoreRecords seeds a fresh set from snapshotRecords output, before
// any worker runs. Every restored entry is finalized — a checkpoint is
// only written at a barrier, where each visited state's expansion choice
// is settled — so the records land as ordinary resident entries,
// spillable as usual if a budget later demands it.
func (vs *visitedSet) restoreRecords(recs []byte) {
	kw := vs.recKeyWidth()
	for ; len(recs) >= kw+4; recs = recs[kw+4:] {
		var h1, h2 uint64
		var key []byte
		if vs.keyWidth == 0 {
			h1, h2 = binary.LittleEndian.Uint64(recs), binary.LittleEndian.Uint64(recs[8:])
		} else {
			key = recs[:kw]
			h1, h2 = hashPair(key)
		}
		s := &vs.stripes[h1&vs.mask]
		if sl, found, _ := s.find(h1, h2, key); !found {
			vs.add(s, sl, h1, h2, key, 0, slotFinalized|binary.LittleEndian.Uint32(recs[kw:]))
		}
	}
}

// close releases every spill segment and retires every table, lock-free:
// call it once no worker claims (256 locks cost a small run ≈6 %).
func (vs *visitedSet) close() {
	if vs.budget <= 0 && !vs.pooled.Load() {
		return
	}
	for i := range vs.stripes {
		s := &vs.stripes[i]
		if sp := s.sp; sp != nil {
			for _, seg := range sp.segs {
				seg.close()
			}
			sp.segs = nil
		}
		retireSlots(s.slots)
		s.slots, s.n = nil, 0
		vs.setHead(uint64(i))
	}
}

// find binary-searches the segment's records, key ‖ pruned sorted on
// the key bytes, for key, returning the record offset.
func (g *spillSeg) find(key []byte) (int, bool) {
	recWidth := len(key) + 4
	lo, hi := 0, len(g.data)/recWidth
	for lo < hi {
		mid := (lo + hi) / 2
		off := mid * recWidth
		switch bytes.Compare(g.data[off:off+len(key)], key) {
		case 0:
			return off, true
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// prunedAt and setPrunedAt access the pruned field at off, as
// findSpilled returns it.
func (g *spillSeg) prunedAt(off int) uint32 {
	return binary.LittleEndian.Uint32(g.data[off:])
}

func (g *spillSeg) setPrunedAt(off int, v uint32) {
	binary.LittleEndian.PutUint32(g.data[off:], v)
}

// permuteMask translates an action mask through a processor permutation:
// the actions of processor p become actions of slotOf[p]. A nil slotOf
// is the identity. The engines store sleep/pruned masks on visited
// entries in CANONICAL processor numbering (the entry is shared by every
// orbit member) and translate at the boundary: masks computed on the
// live machine permute through the state's slotOf on the way in, and
// masks read back from the entry invert on the way out.
func permuteMask(z actionMask, slotOf []int) actionMask {
	if slotOf == nil || z == 0 {
		return z
	}
	var out actionMask
	for p := 0; p < len(slotOf) && z != 0; p++ {
		bits := (z >> (2 * uint(p))) & 3
		z &^= 3 << (2 * uint(p))
		out |= bits << (2 * uint(slotOf[p]))
	}
	return out
}

// unpermuteMask is permuteMask's inverse: canonical-numbered masks back
// to the live machine's numbering.
func unpermuteMask(z actionMask, slotOf []int) actionMask {
	if slotOf == nil || z == 0 {
		return z
	}
	var out actionMask
	for p := 0; p < len(slotOf); p++ {
		bits := (z >> (2 * uint(slotOf[p]))) & 3
		out |= bits << (2 * uint(p))
	}
	return out
}
