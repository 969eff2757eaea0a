package litmus

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/programs"
)

// refEntry is the reference model of one visited entry: the sleep-set
// protocol state spelled out independently of the slot encoding, plus
// whether an eviction has moved the entry to a spill segment.
type refEntry struct {
	h1               uint64
	sleepAcc, pruned actionMask
	finalized        bool
	spilled          bool
}

// arrive is a duplicate arrival with sleep mask z.
func (r *refEntry) arrive(z actionMask) actionMask {
	if !r.finalized {
		r.sleepAcc &= z
		return 0
	}
	missing := r.pruned &^ z
	r.pruned &= z
	return missing
}

func (r *refEntry) finalize(tmask actionMask) actionMask {
	r.pruned = tmask & r.sleepAcc
	r.finalized = true
	return r.sleepAcc
}

// modelKey is one key of the stripe model: a hash pair alone in hashed
// mode, key bytes (which the hooked hashPair maps to the pair) in exact
// mode. id is its identity in the reference map.
type modelKey struct {
	h1, h2 uint64
	key    []byte
}

func (k modelKey) id() string {
	if k.key != nil {
		return string(k.key)
	}
	return fmt.Sprintf("%x/%x", k.h1, k.h2)
}

// stripeAudit checks one stripe against the reference: the resident
// population, every resident reference key found with an equal entry,
// load within the ¾ bound, in exact mode a dense arena of exactly the
// segments its keys need, each slot pointing at its own key and every
// key at the address where recorded in at (a key's bytes never move
// while the table doubles; a spill's compaction clears at), spilled
// keys gone from the table but answered by a segment with the
// reference's pruned mask, and the set's resident gauge equal to the
// bytes actually held.
func stripeAudit(t *testing.T, e *engine, keys []modelKey, ref map[string]*refEntry, at map[string]*byte) {
	t.Helper()
	s := &e.visited.stripes[0]
	resident := 0
	for _, r := range ref {
		if !r.spilled {
			resident++
		}
	}
	if s.n != resident {
		t.Fatalf("stripe holds %d keys, reference %d", s.n, resident)
	}
	if s.n*4 > len(s.slots)*3 {
		t.Fatalf("%d keys in %d slots: over ¾ load", s.n, len(s.slots))
	}
	occupied := 0
	arena := map[uint64]bool{}
	for i := range s.slots {
		if sl := &s.slots[i]; sl.meta&slotOccupied != 0 {
			occupied++
			arena[sl.h2] = true
			if s.x != nil {
				if h1, _ := hashPair(s.x.key(sl)); h1 != sl.h1 {
					t.Fatalf("slot %d: arena key %x hashes to %#x, slot holds %#x", i, s.x.key(sl), h1, sl.h1)
				}
			}
		}
	}
	if occupied != s.n {
		t.Fatalf("%d occupied slots, n=%d", occupied, s.n)
	}
	if h := e.visited.heads; h != nil && len(s.slots) > 0 && (h[0].base.Load() != uintptr(unsafe.Pointer(&s.slots[0])) || h[0].mask.Load() != uint64(len(s.slots)-1)) {
		t.Fatalf("stripe head (%#x, %d) does not name its table of %d slots", h[0].base.Load(), h[0].mask.Load(), len(s.slots))
	}
	if x := s.x; x != nil {
		segs := 0
		if s.n > 0 {
			last, _ := arenaSeg(s.n - 1)
			segs = last + 1
		}
		if len(x.segs) != segs {
			t.Fatalf("arena of %d segments for %d keys, want %d", len(x.segs), s.n, segs)
		}
		for k, seg := range x.segs {
			if want := min(max(4, 2<<k), 4096) * x.kw; len(seg) != want {
				t.Fatalf("arena segment %d holds %d bytes, want %d", k, len(seg), want)
			}
		}
		if len(arena) != s.n {
			t.Fatalf("%d distinct arena indices for %d keys", len(arena), s.n)
		}
		for i := range arena {
			if i >= uint64(s.n) {
				t.Fatalf("arena index %d of %d", i, s.n)
			}
		}
	}
	if got := e.visited.resident.Load(); got != s.bytes() {
		t.Fatalf("resident gauge %d, stripe holds %d bytes", got, s.bytes())
	}
	for _, k := range keys {
		want := ref[k.id()]
		sl, found, _ := s.find(k.h1, k.h2, k.key)
		if want.spilled {
			seg, off := s.findSpilled(k.h1, k.h2, k.key)
			if found || seg == nil {
				t.Fatalf("spilled key %s: in table %v, in a segment %v", k.id(), found, seg != nil)
			}
			if got := actionMask(seg.prunedAt(off)); got != want.pruned {
				t.Fatalf("spilled key %s: pruned %b, reference %b", k.id(), got, want.pruned)
			}
			continue
		}
		if !found {
			t.Fatalf("key %s lost (table of %d slots)", k.id(), len(s.slots))
		}
		if s.x != nil {
			p := &s.x.key(sl)[0]
			if was, ok := at[k.id()]; ok && was != p {
				t.Fatalf("key %q moved in the arena without a spill", k.id())
			}
			at[k.id()] = p
		}
		got := refEntry{h1: sl.h1, sleepAcc: sl.sleepAcc, pruned: actionMask(sl.meta & slotPruned), finalized: sl.meta&slotFinalized != 0}
		if got != *want {
			t.Fatalf("key %s: entry %+v, reference %+v", k.id(), got, *want)
		}
	}
}

// TestVisitedStripeModel drives one stripe of the visited set and a
// reference map with the same random claim / duplicate / finalize / seen
// sequence, in both key modes: forced equal-h1 groups, the all-zero key,
// growth from an unallocated table through every doubling to 8,192 slots
// (audited at each), and the MaxStates edge, where a claim must insert
// nothing. Exact mode routes 13-byte keys through a pairFilter that
// reads h1 out of the key (so groups of keys share one h1 and h2 carries
// nothing). Both modes evict twice on the way — the unfinalized entries
// must survive the rebuild and the spilled ones keep answering from
// their segments — and end with a snapshot restored into a fresh set
// of the other stripe count. Every leg runs in a one-worker set (one
// stripe) and a multi-worker one (256).
func TestVisitedStripeModel(t *testing.T) {
	t.Cleanup(func() { pairFilter = nil })
	// Low 8 bits zero: every key lands in stripe 0.
	pairFilter = func(_, _ uint64, b []byte) (uint64, uint64) { return binary.LittleEndian.Uint64(b) << 8, 0 }

	const distinct = 3500 // the 3,073rd key doubles the table to 8,192 slots
	for _, exact := range []bool{false, true} {
		keyWidth := 0
		if exact {
			keyWidth = 13
		}
		for _, leg := range []struct {
			seed int64
			nw   int
		}{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {3, 2}} {
			seed, nw := leg.seed, leg.nw
			rng := rand.New(rand.NewSource(seed))
			e := &engine{plan: plan{maxStates: distinct}}
			// A budget gives the stripes spill columns; nothing here calls
			// maybeSpill, so the test evicts when it chooses.
			e.visited.init(nw, keyWidth, 1, false, false)
			defer e.visited.close()
			if want := map[int]int{1: 1, 2: visitedStripes}[nw]; len(e.visited.stripes) != want {
				t.Fatalf("%d workers: %d stripes, want %d", nw, len(e.visited.stripes), want)
			}
			s := &e.visited.stripes[0]
			ref := map[string]*refEntry{}
			at := map[string]*byte{}       // exact keys' arena addresses (stripeAudit)
			sharing := map[uint64]uint64{} // h1 -> resident keys holding it
			var keys []modelKey
			var collisions uint64
			maxSlots := 0
			tag := fmt.Sprintf("exact=%v seed %d workers %d", exact, seed, nw)
			mask := func() actionMask { return actionMask(rng.Intn(1 << (2 * maxReductionProcs))) }
			// A pool of 40 narrow h1 values forces equal-h1 groups and long
			// shared probe runs.
			freshKey := func() modelKey {
				for {
					k := modelKey{h1: rng.Uint64() << 8, h2: rng.Uint64()}
					switch rng.Intn(4) {
					case 0:
						k.h1 = uint64(rng.Intn(40)) << 8
					case 1:
						k.h1 = uint64(rng.Intn(40)) << 8
						k.h2 = uint64(rng.Intn(4))
					}
					if exact {
						k.key = make([]byte, keyWidth)
						binary.LittleEndian.PutUint64(k.key, k.h1>>8)
						k.key[8] = byte(k.h2)
						rng.Read(k.key[9:])
						k.h1, k.h2 = hashPair(k.key)
					}
					if _, dup := ref[k.id()]; !dup {
						return k
					}
				}
			}
			insert := func(k modelKey) {
				z := mask()
				st, missing := e.claim(k.h1, k.h2, k.key, z)
				if st != claimWon || missing != 0 {
					t.Fatalf("%s: new key %s: status %d missing %b", tag, k.id(), st, missing)
				}
				if sharing[k.h1] > 0 {
					collisions++
				}
				sharing[k.h1]++
				ref[k.id()] = &refEntry{h1: k.h1, sleepAcc: z}
				keys = append(keys, k)
			}
			spill := func() {
				e.visited.spillStripe(0)
				n := 0
				for _, r := range ref {
					if r.finalized && !r.spilled {
						r.spilled = true
						sharing[r.h1]--
						n++
					}
				}
				if n == 0 || n == len(ref) {
					t.Fatalf("%s: eviction of %d of %d entries exercises nothing", tag, n, len(ref))
				}
				clear(at)
				stripeAudit(t, e, keys, ref, at)
			}

			zero := modelKey{}
			if exact {
				zero.key = make([]byte, keyWidth)
			}
			if e.seen(0, 0, zero.key) || e.finalize(0, 0, zero.key, 3, 0) != 0 {
				t.Fatal("unallocated stripe answered for the zero key")
			}
			insert(zero)
			for slots := 0; len(ref) < distinct; {
				if len(s.slots) != slots { // the last operation resized the table
					slots = len(s.slots)
					maxSlots = max(maxSlots, slots)
					stripeAudit(t, e, keys, ref, at)
				}
				switch op := rng.Intn(20); {
				case op < 7:
					insert(freshKey())
					if len(ref) == 3200 || len(ref) == 3400 {
						spill()
					}
				case op < 17: // duplicate arrival, the workload's common case
					k := keys[rng.Intn(len(keys))]
					z := mask()
					wantMissing := ref[k.id()].arrive(z)
					st, missing := e.claim(k.h1, k.h2, k.key, z)
					if st != claimDup || missing != wantMissing {
						t.Fatalf("%s: duplicate %s: status %d missing %b, want %b", tag, k.id(), st, missing, wantMissing)
					}
				case op < 19:
					k := keys[rng.Intn(len(keys))]
					if ref[k.id()].finalized {
						continue
					}
					tmask := mask()
					wantZ := ref[k.id()].finalize(tmask)
					if z := e.finalize(k.h1, k.h2, k.key, tmask, 0); z != wantZ {
						t.Fatalf("%s: finalize %s returned %b, want %b", tag, k.id(), z, wantZ)
					}
				default:
					k := freshKey()
					if rng.Intn(2) == 0 {
						k = keys[rng.Intn(len(keys))]
					}
					_, want := ref[k.id()]
					if got := e.seen(k.h1, k.h2, k.key); got != want {
						t.Fatalf("%s: seen(%s)=%v, want %v", tag, k.id(), got, want)
					}
				}
			}
			stripeAudit(t, e, keys, ref, at)
			if maxSlots < 4096 {
				t.Fatalf("table stopped at %d slots", maxSlots)
			}
			if got := e.h1Collisions.Load(); got != collisions {
				t.Errorf("%s: visited_h1_collisions=%d, reference %d", tag, got, collisions)
			}

			// The budget is spent: the next new key is refused and leaves no
			// trace, while known keys still answer as duplicates.
			k := freshKey()
			if st, _ := e.claim(k.h1, k.h2, k.key, 0); st != claimTruncated {
				t.Fatalf("%s: claim past MaxStates returned %d", tag, st)
			}
			if e.seen(k.h1, k.h2, k.key) || e.states.Load() != distinct || !e.truncated.Load() || !e.cancel.Load() {
				t.Errorf("%s: refused claim left a trace: states=%d truncated=%v", tag, e.states.Load(), e.truncated.Load())
			}
			if st, _ := e.claim(0, 0, zero.key, 0); st != claimDup {
				t.Errorf("%s: zero key after truncation: status %d", tag, st)
			}
			ref[zero.id()].arrive(0)
			stripeAudit(t, e, keys, ref, at)
			for i := 1; i < len(e.visited.stripes); i++ {
				if e.visited.stripes[i].slots != nil {
					t.Fatalf("stripe %d allocated by keys of stripe 0", i)
				}
			}
			// A snapshot holds every entry, resident or spilled (its segments
			// appended verbatim), and a fresh set restored from it answers
			// each as a finalized duplicate with the pruned mask it had.
			recs, n := e.visited.snapshotRecords()
			if n != len(ref) || len(recs) != n*(e.visited.recKeyWidth()+4) {
				t.Fatalf("%s: snapshot of %d records in %d bytes, reference %d", tag, n, len(recs), len(ref))
			}
			r := &engine{plan: plan{maxStates: distinct}}
			r.visited.init(3-nw, keyWidth, 0, false, false)
			r.visited.restoreRecords(recs)
			if got := r.visited.stripes[0].n; got != len(ref) {
				t.Fatalf("%s: restored %d of %d records", tag, got, len(ref))
			}
			for _, k := range keys {
				st, missing := r.claim(k.h1, k.h2, k.key, 0)
				if want := ref[k.id()].pruned; st != claimDup || missing != want {
					t.Fatalf("%s: restored key %s: status %d missing %b, want %b", tag, k.id(), st, missing, want)
				}
			}
		}
	}
}

// TestVisitedArenaSlackIsOneSegment stores 300,000 keys, far past where
// arena segments stop doubling, into one exact stripe's arena: every key
// must read back where it was written, no key may move, and the bytes
// the segments hold past their keys must stay under one full segment,
// where doubling segments would leave a stripe up to twice its keys'.
func TestVisitedArenaSlackIsOneSegment(t *testing.T) {
	const kw, n = 13, 300_000
	x := &exactStripe{kw: kw}
	at := make([]*byte, n)
	key := make([]byte, kw)
	for i := range n {
		binary.LittleEndian.PutUint64(key, uint64(i))
		x.store(i, key)
		at[i] = &x.keyAt(i)[0]
		if slack := x.bytes() - (i+1)*kw; slack < 0 || slack >= arenaSegKeys*kw {
			t.Fatalf("%d keys: the arena holds %d bytes, %d past its keys", i+1, x.bytes(), slack)
		}
	}
	for i := range n {
		k := x.keyAt(i)
		if got := binary.LittleEndian.Uint64(k); got != uint64(i) || &k[0] != at[i] {
			t.Fatalf("arena index %d reads key %d at %p, stored at %p", i, got, &k[0], at[i])
		}
	}
}

// TestVisitedHashPair pins tso.HashPair, through hashPair, to values
// recorded before it existed, across the word loop and the byte tail, and
// the dekker-nofence root identity: checkpoint headers carry
// rootIdentity's pair and optionsHash's first half, so a drift would
// orphan every saved checkpoint.
func TestVisitedHashPair(t *testing.T) {
	long := make([]byte, 257)
	for i := range long {
		long[i] = byte(i*131 + 7)
	}
	for _, g := range []struct {
		in     []byte
		h1, h2 uint64
	}{
		{[]byte("location-based memory fences"), 0xb6d04c39ea4b8ea7, 0x9edb10d7068c3bca},
		{long, 0x22a8308e1a08fde3, 0x7bcd792830193b47},
	} {
		if h1, h2 := hashPair(g.in); h1 != g.h1 || h2 != g.h2 {
			t.Errorf("%d-byte golden: (%#x,%#x), recorded (%#x,%#x)", len(g.in), h1, h2, g.h1, g.h2)
		}
	}
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	if h1, h2 := rootIdentity(machineFor(p0, p1)()); h1 != 0x82d0bef3f3ccff13 || h2 != 0x366b04e540bea583 {
		t.Errorf("dekker-nofence root identity (%#x,%#x) differs from the one in pre-existing checkpoints", h1, h2)
	}
}

// TestVisitedDuplicateClaimAllocs: a duplicate arrival, two thirds of
// all claims on the large workloads, mutates its slot in place, whether
// the slot matches on the second hash or on the exact key, in a set of
// one stripe or of 256.
func TestVisitedDuplicateClaimAllocs(t *testing.T) {
	for _, c := range []struct{ nw, keyWidth int }{{1, 0}, {1, 256}, {2, 0}, {2, 256}} {
		keyWidth := c.keyWidth
		e := &engine{plan: plan{maxStates: 1 << 20}}
		e.visited.init(c.nw, keyWidth, 0, true, false)
		fp := make([]byte, 256)
		h1, h2 := hashPair(fp)
		if st, _ := e.claim(h1, h2, fp, 0); st != claimWon {
			t.Fatalf("key width %d: first claim: status %d", keyWidth, st)
		}
		if n := testing.AllocsPerRun(1000, func() {
			h1, h2 := hashPair(fp)
			if st, _ := e.claim(h1, h2, fp, 0); st != claimDup {
				t.Fatalf("key width %d: status %d", keyWidth, st)
			}
		}); n != 0 {
			t.Errorf("key width %d: duplicate claim allocates %.1f objects", keyWidth, n)
		}
	}
}

// exactClaimWidth is the exact-key benchmark's key width, that of a
// 3-processor collapsed tuple.
const exactClaimWidth = 41

// visitedClaimKeys is BenchmarkVisitedClaim's input: 1 M keys (the hash
// pair and, for the exact-key case, 41 bytes beginning with it) of which
// 65 % repeat an earlier one, explore-plain's duplicate mix.
func visitedClaimKeys() []modelKey {
	rng := rand.New(rand.NewSource(7))
	keys := make([]modelKey, 1<<20)
	arena := make([]byte, len(keys)*exactClaimWidth)
	fresh := 0
	for i := range keys {
		if fresh > 0 && rng.Intn(100) < 65 {
			keys[i] = keys[rng.Intn(i)]
			continue
		}
		k := modelKey{h1: rng.Uint64(), h2: rng.Uint64(), key: arena[i*exactClaimWidth:][:exactClaimWidth]}
		binary.LittleEndian.PutUint64(k.key, k.h1)
		binary.LittleEndian.PutUint64(k.key[8:], k.h2)
		keys[i] = k
		fresh++
	}
	return keys
}

// BenchmarkVisitedClaim times the visited set alone: one op claims the
// whole 1 M-key sequence into a fresh set, hashed or exact, split
// between the stated number of goroutines.
func BenchmarkVisitedClaim(b *testing.B) {
	keys := visitedClaimKeys()
	for _, mode := range []struct {
		prefix   string
		keyWidth int
	}{{"", 0}, {"exact/", exactClaimWidth}} {
		for _, g := range []int{1, 2} {
			b.Run(fmt.Sprintf("%sgoroutines=%d", mode.prefix, g), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := &engine{plan: plan{maxStates: 1 << 30}}
					e.visited.init(g, mode.keyWidth, 0, true, false)
					var wg sync.WaitGroup
					for w := 0; w < g; w++ {
						wg.Add(1)
						go func(part []modelKey) {
							defer wg.Done()
							for _, k := range part {
								e.claim(k.h1, k.h2, k.key, 0)
							}
						}(keys[w*len(keys)/g : (w+1)*len(keys)/g])
					}
					wg.Wait()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/claim")
			})
		}
	}
}

var hashSink uint64

func BenchmarkHashPair(b *testing.B) {
	fp := make([]byte, 256)
	rand.New(rand.NewSource(5)).Read(fp)
	b.SetBytes(int64(len(fp)))
	for i := 0; i < b.N; i++ {
		h1, h2 := hashPair(fp)
		hashSink += h1 ^ h2
	}
}
