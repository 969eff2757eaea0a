package tso

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file implements SPIN-style collapse compression for machine
// states (Holzmann, "State compression in SPIN"). A state's full
// serialization (Machine.Fingerprint) concatenates four component
// kinds: per-processor core state, per-processor store-buffer contents,
// per-processor cache state, and the memory image. Across a run the
// number of DISTINCT values each component takes is tiny compared to
// the number of distinct full states — a processor's core cycles
// through a few hundred encodings while the product space runs to
// millions — so the compressor interns each component's bytes into a
// shared table once and represents a state as a short fixed-width tuple
// of table indices.
//
// The tuple is an EXACT identity, not a hash: two states collapse to
// the same tuple iff their full fingerprints are byte-identical. The
// model checker's visited set can therefore key on tuples directly,
// dropping both the per-state full serialization and the (sound but
// memory-hungry) 128-bit hashed key, and the fixed width is what makes
// the memory-budgeted visited set's spill records possible.

// The intern tables are the one piece of the key path every worker
// shares, and almost every call is a hit, so a hit writes no shared
// cache line. A table is a flat open-addressed array of atomic 64-bit
// words, hash tag in the high half and id+1 in the low half (zero is an
// empty slot), probed linearly from the tag's low bits. Lock-free reads
// are safe because of the order in which an insert publishes, all under
// the table's mutex:
//
//  1. the key's bytes are copied into an arena chunk that is never
//     written again at those offsets and never moves (a full chunk is
//     left in place and a new one started);
//  2. the slice header for those bytes is stored at keys[id], an element
//     no reader looks at until it has seen id in a slot;
//  3. the slot word is stored atomically. A reader that loads the word
//     therefore observes 1 and 2 (sync/atomic operations are
//     sequentially consistent), and compares against bytes that will
//     never change.
//
// Slots are never cleared or moved within an array, so linear probing
// finds every entry published before the probe began; an entry published
// during it can only be missed, and a miss takes the mutex and probes
// again. Growth builds a doubled slots/keys pair off to the side and
// publishes it with one atomic pointer store; readers still holding the
// old pair see a consistent, merely older, table.

// internHash hashes a component encoding. It is a package variable so
// the tests can force every key onto one tag and check that ids stay
// exact.
var internHash = func(b []byte) uint64 { return maphash.Bytes(internSeed, b) }

var internSeed = maphash.MakeSeed()

const (
	// internMinSlots is a table's first slot array: litmusd jobs build a
	// Collapser for 52-state spaces.
	internMinSlots = 256
	internMinArena = 1 << 10
)

// internArrays is one published generation of a table: the slot array
// and the id-indexed key headers, sized so that the generation never
// reallocates either (len(keys) is the ½ load limit).
type internArrays struct {
	slots []atomic.Uint64
	keys  [][]byte
}

// find probes for key, whose hash is h. It returns the id on a hit, and
// otherwise the empty slot that ended the probe.
func (a *internArrays) find(key []byte, h uint64) (id uint32, at int, ok bool) {
	mask := len(a.slots) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		w := a.slots[i].Load()
		if w == 0 {
			return 0, i, false
		}
		if w>>32 == h>>32 && bytes.Equal(a.keys[uint32(w)-1], key) {
			return uint32(w) - 1, i, true
		}
	}
}

// internTable interns byte strings, assigning dense uint32 indices in
// first-seen order. Safe for concurrent use; a lookup of an
// already-interned component (the overwhelmingly common case once the
// run warms up) is atomic loads and one bytes.Equal.
type internTable struct {
	cur atomic.Pointer[internArrays]

	mu    sync.Mutex // serializes inserts; guards the fields below
	n     uint32     // interned keys
	arena []byte     // current key-storage chunk, appended to in place
	bytes int64      // slot arrays, key headers and arena chunks allocated
}

func (t *internTable) intern(key []byte) uint32 {
	h := internHash(key)
	if a := t.cur.Load(); a != nil {
		if id, _, ok := a.find(key, h); ok {
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.cur.Load()
	if a == nil || int(t.n) == len(a.keys) {
		a = t.grow(a)
	}
	id, at, ok := a.find(key, h)
	if ok {
		return id
	}
	if len(key) > cap(t.arena)-len(t.arena) {
		t.arena = make([]byte, 0, max(2*cap(t.arena), len(key), internMinArena))
		t.bytes += int64(cap(t.arena))
	}
	off := len(t.arena)
	t.arena = append(t.arena, key...)
	id = t.n
	a.keys[id] = t.arena[off:len(t.arena):len(t.arena)]
	a.slots[at].Store(h>>32<<32 | uint64(id+1))
	t.n++
	return id
}

// grow publishes a doubled copy of old (or the first generation) and
// returns it. A slot word carries its own probe start, so no key is
// rehashed.
func (t *internTable) grow(old *internArrays) *internArrays {
	size := internMinSlots
	if old != nil {
		size = 2 * len(old.slots)
	}
	a := &internArrays{slots: make([]atomic.Uint64, size), keys: make([][]byte, size/2)}
	t.bytes += int64(size)*8 + int64(size/2)*int64(unsafe.Sizeof([]byte(nil)))
	if old != nil {
		copy(a.keys, old.keys)
		for i := range old.slots {
			if w := old.slots[i].Load(); w != 0 {
				j := int(w>>32) & (size - 1)
				for a.slots[j].Load() != 0 {
					j = (j + 1) & (size - 1)
				}
				a.slots[j].Store(w)
			}
		}
	}
	t.cur.Store(a)
	return a
}

// snapshot returns a copy of every interned key in index order.
func (t *internTable) snapshot() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([][]byte, t.n)
	if t.n > 0 {
		for id, k := range t.cur.Load().keys[:t.n] {
			keys[id] = bytes.Clone(k)
		}
	}
	return keys
}

func (t *internTable) stats() (entries uint64, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return uint64(t.n), t.bytes
}

// Collapser holds the shared component tables of one exploration run.
// One Collapser serves all workers; Collapse is safe for concurrent
// use.
type Collapser struct {
	core  internTable // per-processor FingerprintCore encodings
	sb    internTable // per-processor store-buffer encodings
	cache internTable // per-processor mesi cache encodings
	mem   internTable // whole-memory images
}

// NewCollapser returns an empty component-table set.
func NewCollapser() *Collapser { return &Collapser{} }

// CollapsedWidth reports the fixed byte width of a collapsed key for a
// machine with procs processors: one 4-byte component index each for
// core, store buffer, and cache per processor, one for memory, plus the
// CS-violation byte.
func CollapsedWidth(procs int) int { return 4*(3*procs+1) + 1 }

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Collapse appends m's collapsed key to dst and returns it. scratch is
// a caller-owned reusable buffer for component encodings (one per
// worker keeps the hot path allocation-free). The key has
// CollapsedWidth(len(m.Procs)) bytes and equals another state's key iff
// the two full fingerprints are equal. Only components written since m
// (or the machine it was copied from) was last collapsed by c are
// re-encoded and re-interned; the rest of the tuple is m's cached ids
// (statekey.go), so the call writes to m and one machine must not be
// collapsed from two goroutines at once. Under symmetry the orbit
// representative's key is Canonicalizer.CollapsedKey, which Collapse of
// the representative machine defines.
func (c *Collapser) Collapse(m *Machine, dst []byte, scratch *[]byte) []byte {
	m.refreshKeys(c, scratch)
	for _, p := range m.Procs {
		for _, k := range &p.keys {
			dst = appendU32(dst, uint32(k[0]))
		}
	}
	dst = appendU32(dst, uint32(m.memKey[0]))
	if m.CSViolation {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// tables returns the Collapser's four component tables in their fixed
// serialization order.
func (c *Collapser) tables() [4]*internTable {
	return [4]*internTable{&c.core, &c.sb, &c.cache, &c.mem}
}

// NumComponentTables is the number of component tables a Collapser
// holds, fixed by the collapsed-key layout.
const NumComponentTables = 4

// TableSnapshot returns each component table's interned byte strings in
// index order: snapshot[t][i] is the component that table t assigned
// index i. Interning the same sequences into a fresh Collapser (see
// RestoreTables) reproduces the index assignment exactly, which is what
// makes collapsed visited-set keys meaningful across process restarts —
// the model checker's checkpoint files persist this snapshot alongside
// the key tuples. Callers must quiesce the run first (the checkpoint
// barrier does); the per-table locks only protect against torn reads.
func (c *Collapser) TableSnapshot() [NumComponentTables][][]byte {
	var out [NumComponentTables][][]byte
	for ti, t := range c.tables() {
		out[ti] = t.snapshot()
	}
	return out
}

// RestoreTables replays a TableSnapshot into a fresh Collapser,
// re-interning every component in index order so each table reproduces
// the snapshot's exact index assignment. It panics if the Collapser has
// already interned anything — restoring into a warm table would silently
// renumber components and corrupt every previously collapsed key.
func (c *Collapser) RestoreTables(snapshot [NumComponentTables][][]byte) {
	for ti, t := range c.tables() {
		if n, _ := t.stats(); n != 0 {
			panic("tso: RestoreTables on a non-empty Collapser")
		}
		for want, key := range snapshot[ti] {
			if got := t.intern(key); got != uint32(want) {
				panic("tso: RestoreTables index mismatch")
			}
		}
	}
}

// Stats reports the total interned component count and the approximate
// resident bytes of the shared tables. The tables are shared across the
// run and are NOT covered by the model checker's memory budget (they
// grow with distinct component values, not with states); the checker
// reports them separately so states-per-byte metrics stay honest.
func (c *Collapser) Stats() (entries uint64, bytes int64) {
	for _, t := range c.tables() {
		e, b := t.stats()
		entries += e
		bytes += b
	}
	return entries, bytes
}
