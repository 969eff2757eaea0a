package litmus

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// This file implements the collapsed visited set behind Options.Collapse
// and Options.MemBudget: a 256-stripe map keyed by the EXACT fixed-width
// collapsed state tuple (tso.Collapser), with optional spilling of cold
// stripes to mmap'd temp files when a memory budget is set.
//
// Keying on the collapsed tuple instead of the 128-bit hash pair removes
// the (astronomically unlikely but nonzero) silent-merge risk of hashed
// keys and shrinks the per-state cost to the tuple plus map overhead.
// Because the tuple is fixed-width, a stripe's finalized entries can be
// serialized as a sorted run of fixed-width records and searched by
// binary search after eviction — which is what lets MemBudget degrade an
// over-budget run to slower-but-exact instead of truncated-and-partial.
//
// Spill protocol. Only FINALIZED entries spill (entries whose reduction
// bookkeeping is complete: pruned is settled and sleepAcc is dead).
// A claim-winning entry under Options.Reduction is not finalized until
// its expansion is chosen, and the winner holds the frame until then, so
// an entry can never spill between its claim and its finalize. Spilled
// entries still participate fully in the sleep-set protocol: a duplicate
// arrival reads pruned from the spill record, re-expands the difference
// its sleep set cannot justify, and shrinks the record's pruned in place
// (the segments are mapped read-write; mutations happen under the
// owning stripe's lock). Segments are immutable in membership — never
// compacted or merged — so a stripe that spills repeatedly accumulates
// a run list; lookups search newest-first. Spill I/O failure is not
// fatal: the set disables the budget and the run completes in memory.

// centryOverhead approximates the per-entry cost of a live collapsed-map
// entry beyond the key bytes: Go map bucket share, string header, and
// the ventry payload.
const centryOverhead = 64

// cstripe is one lock-striped shard of the collapsed visited set.
type cstripe struct {
	mu    sync.Mutex
	m     map[string]ventry
	touch uint64      // tick of the most recent claim (eviction recency)
	bytes int64       // resident bytes of m's keys and entries
	segs  []*spillSeg // spilled runs, oldest first
	_     [24]byte    // pad to a cache line so stripes don't false-share
}

// collapsedSet is the exact-keyed, budget-aware visited set.
type collapsedSet struct {
	keyWidth int
	recWidth int // keyWidth + 4 bytes of pruned mask
	budget   int64
	// finalOnInsert marks entries finalized at claim time; set when the
	// run has no reduction, where no finalize call will ever come and
	// every entry is immediately eligible to spill.
	finalOnInsert bool

	stripes [visitedStripes]cstripe

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

func newCollapsedSet(keyWidth int, budget int64, finalOnInsert bool) *collapsedSet {
	cs := &collapsedSet{
		keyWidth:      keyWidth,
		recWidth:      keyWidth + 4,
		budget:        budget,
		finalOnInsert: finalOnInsert,
	}
	for i := range cs.stripes {
		cs.stripes[i].m = make(map[string]ventry) // unhinted, as in newVisitedSet
	}
	return cs
}

func (cs *collapsedSet) stripeOf(key []byte) *cstripe {
	return &cs.stripes[fnv64a(key)&(visitedStripes-1)]
}

// addResident adjusts the resident-byte gauge and tracks its peak.
func (cs *collapsedSet) addResident(delta int64) {
	n := cs.resident.Add(delta)
	for {
		p := cs.peak.Load()
		if n <= p || cs.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// claim is the collapsed-set counterpart of engine.claim: exactly one
// caller per distinct key wins, states are counted under the stripe
// lock, and duplicate arrivals get back the previously pruned actions
// their sleep mask z does not cover.
func (cs *collapsedSet) claim(e *engine, key []byte, z actionMask) (claimStatus, actionMask) {
	s := cs.stripeOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch = cs.tick.Add(1)

	if ve, ok := s.m[string(key)]; ok {
		missing := dupMerge(&ve, z)
		s.m[string(key)] = ve
		return claimDup, missing
	}
	for i := len(s.segs) - 1; i >= 0; i-- {
		if off, ok := s.segs[i].find(key, cs.recWidth); ok {
			// Spilled entries are always finalized; run the finalized arm
			// of dupMerge against the record's pruned field in place.
			pruned := actionMask(s.segs[i].prunedAt(off, cs.keyWidth))
			missing := pruned &^ z
			if missing != 0 {
				s.segs[i].setPrunedAt(off, cs.keyWidth, uint32(pruned&z))
			}
			return claimDup, missing
		}
	}
	if !e.bumpStates() {
		return claimTruncated, 0
	}
	s.m[string(key)] = ventry{sleepAcc: z, finalized: cs.finalOnInsert}
	s.bytes += int64(len(key)) + centryOverhead
	cs.addResident(int64(len(key)) + centryOverhead)
	return claimWon, 0
}

// seen reports membership without claiming, for the cycle proviso's
// successor probes.
func (cs *collapsedSet) seen(key []byte) bool {
	s := cs.stripeOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[string(key)]; ok {
		return true
	}
	for i := len(s.segs) - 1; i >= 0; i-- {
		if _, ok := s.segs[i].find(key, cs.recWidth); ok {
			return true
		}
	}
	return false
}

// finalize publishes the claim winner's chosen persistent set and
// retrieves the merged sleep mask, mirroring engine.finalize. The entry
// is necessarily still live in the stripe map: only finalized entries
// spill, and this call is what finalizes it.
func (cs *collapsedSet) finalize(key []byte, tmask actionMask) actionMask {
	s := cs.stripeOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	ve, ok := s.m[string(key)]
	if !ok {
		return 0
	}
	z := finalizeEntry(&ve, tmask)
	s.m[string(key)] = ve
	return z
}

// maybeSpill brings the set back under budget by evicting the coldest
// stripes' finalized entries to spill segments. Called by claim winners
// outside any stripe lock; a TryLock keeps concurrent winners from
// stacking up behind one spill pass.
func (cs *collapsedSet) maybeSpill() {
	if cs.budget <= 0 || cs.disabled.Load() || cs.resident.Load() <= cs.budget {
		return
	}
	if !cs.spillMu.TryLock() {
		return
	}
	defer cs.spillMu.Unlock()

	type cand struct {
		idx   int
		touch uint64
	}
	var cands []cand
	for i := range cs.stripes {
		s := &cs.stripes[i]
		s.mu.Lock()
		if s.bytes > 0 {
			cands = append(cands, cand{idx: i, touch: s.touch})
		}
		s.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].touch < cands[j].touch })
	for _, c := range cands {
		if cs.resident.Load() <= cs.budget || cs.disabled.Load() {
			return
		}
		cs.spillStripe(&cs.stripes[c.idx])
	}
}

// spillStripe moves the stripe's finalized entries into one sorted
// fixed-width spill segment. On segment-creation failure the budget is
// disabled for the rest of the run (exploration continues, in memory,
// exact).
func (cs *collapsedSet) spillStripe(s *cstripe) {
	s.mu.Lock()
	defer s.mu.Unlock()

	keys := make([]string, 0, len(s.m))
	for k, ve := range s.m {
		if ve.finalized {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	buf := make([]byte, 0, len(keys)*cs.recWidth)
	for _, k := range keys {
		ve := s.m[k]
		buf = append(buf, k...)
		p := uint32(ve.pruned)
		buf = append(buf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	var seg *spillSeg
	var err error
	if cs.faults.At(fault.SpillWrite) {
		err = errors.New("litmus: injected spill-write failure")
	} else {
		seg, err = newSpillSeg(buf)
	}
	if err != nil {
		cs.spillFailures.Add(1)
		cs.disabled.Store(true)
		return
	}
	s.segs = append(s.segs, seg)
	freed := int64(len(keys)) * (int64(cs.keyWidth) + centryOverhead)
	for _, k := range keys {
		delete(s.m, k)
	}
	s.bytes -= freed
	cs.addResident(-freed)
	cs.spillEvents.Add(1)
	cs.spilledStates.Add(uint64(len(keys)))
	cs.spilledBytes.Add(int64(len(buf)))
}

// snapshotRecords serializes every visited entry — live map entries and
// spilled segments alike — as a flat run of fixed-width spill-format
// records (key bytes + 4-byte little-endian pruned mask). Callers must
// have quiesced the run (the checkpoint barrier does); the stripe locks
// are taken only against torn reads. Entries that are still unfinalized
// at the barrier are terminal states under Reduction (their winner
// returned without a finalize call, pruned is zero and will stay zero),
// so recording them as finalized-with-zero-pruned is behaviorally
// identical. Returns the records and the entry count.
func (cs *collapsedSet) snapshotRecords() ([]byte, int) {
	var total int
	for i := range cs.stripes {
		s := &cs.stripes[i]
		s.mu.Lock()
		total += len(s.m)
		for _, seg := range s.segs {
			total += len(seg.data) / cs.recWidth
		}
		s.mu.Unlock()
	}
	out := make([]byte, 0, total*cs.recWidth)
	count := 0
	for i := range cs.stripes {
		s := &cs.stripes[i]
		s.mu.Lock()
		for k, ve := range s.m {
			out = append(out, k...)
			p := uint32(ve.pruned)
			out = append(out, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
			count++
		}
		for _, seg := range s.segs {
			out = append(out, seg.data...)
			count += len(seg.data) / cs.recWidth
		}
		s.mu.Unlock()
	}
	return out, count
}

// restoreRecords seeds a fresh set from snapshotRecords output. Every
// restored entry is finalized — a checkpoint is only written at a
// barrier, where each visited state's expansion choice is settled — so
// the records land as ordinary resident entries, spillable as usual if
// a budget later demands it.
func (cs *collapsedSet) restoreRecords(recs []byte) {
	for off := 0; off+cs.recWidth <= len(recs); off += cs.recWidth {
		key := recs[off : off+cs.keyWidth]
		b := recs[off+cs.keyWidth : off+cs.recWidth]
		pruned := actionMask(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		s := cs.stripeOf(key)
		s.m[string(key)] = ventry{pruned: pruned, finalized: true}
		s.bytes += int64(len(key)) + centryOverhead
		cs.addResident(int64(len(key)) + centryOverhead)
	}
}

// close releases every spill segment's mapping and file.
func (cs *collapsedSet) close() {
	for i := range cs.stripes {
		s := &cs.stripes[i]
		s.mu.Lock()
		for _, seg := range s.segs {
			seg.close()
		}
		s.segs = nil
		s.mu.Unlock()
	}
}

// find binary-searches the segment's sorted fixed-width records for key,
// returning the record offset.
func (g *spillSeg) find(key []byte, recWidth int) (int, bool) {
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

func (g *spillSeg) prunedAt(off, keyWidth int) uint32 {
	b := g.data[off+keyWidth:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (g *spillSeg) setPrunedAt(off, keyWidth int, v uint32) {
	b := g.data[off+keyWidth:]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
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
