package litmus

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/programs"
)

// stripeAudit checks one stripe's table against the reference: same
// population, every reference key found with an equal entry, load
// within the ¾ bound.
func stripeAudit(t *testing.T, s *visitedStripe, ref map[[2]uint64]ventry) {
	t.Helper()
	if s.n != len(ref) {
		t.Fatalf("stripe holds %d keys, reference %d", s.n, len(ref))
	}
	if s.n*4 > len(s.slots)*3 {
		t.Fatalf("%d keys in %d slots: over ¾ load", s.n, len(s.slots))
	}
	occupied := 0
	for i := range s.slots {
		if s.slots[i].meta&slotOccupied != 0 {
			occupied++
		}
	}
	if occupied != s.n {
		t.Fatalf("%d occupied slots, n=%d", occupied, s.n)
	}
	for k, want := range ref {
		sl, found, _ := s.find(k[0], k[1])
		if !found {
			t.Fatalf("key %x lost (table of %d slots)", k, len(s.slots))
		}
		if got := sl.entry(); got != want {
			t.Fatalf("key %x: entry %+v, reference %+v", k, got, want)
		}
	}
}

// TestVisitedStripeModel drives one stripe of the flat visited set and a
// reference map with the same random claim / duplicate / finalize / seen
// sequence: forced equal-h1 groups, the all-zero key, growth from an
// unallocated table through every doubling to 8,192 slots (audited at
// each), and the MaxStates edge, where a claim must insert nothing.
func TestVisitedStripeModel(t *testing.T) {
	const distinct = 3500 // the 3,073rd key doubles the table to 8,192 slots
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		e := &engine{maxStates: distinct, visited: newVisitedSet(false)}
		s := &e.visited.stripes[0]
		ref := map[[2]uint64]ventry{}
		sharing := map[uint64]uint64{} // h1 -> keys holding it
		var keys [][2]uint64
		var collisions uint64
		mask := func() actionMask { return actionMask(rng.Intn(1 << (2 * maxReductionProcs))) }
		// Every h1 keeps its low 8 bits zero so all keys land in stripe 0;
		// the pool of 40 narrow values forces equal-h1 groups and long
		// shared probe runs.
		freshKey := func() [2]uint64 {
			for {
				k := [2]uint64{rng.Uint64() << 8, rng.Uint64()}
				switch rng.Intn(4) {
				case 0:
					k[0] = uint64(rng.Intn(40)) << 8
				case 1:
					k[0] = uint64(rng.Intn(40)) << 8
					k[1] = uint64(rng.Intn(4))
				}
				if _, dup := ref[k]; !dup {
					return k
				}
			}
		}
		insert := func(k [2]uint64) {
			z := mask()
			st, missing := e.claim(k[0], k[1], nil, z)
			if st != claimWon || missing != 0 {
				t.Fatalf("seed %d: new key %x: status %d missing %b", seed, k, st, missing)
			}
			if sharing[k[0]] > 0 {
				collisions++
			}
			sharing[k[0]]++
			ref[k] = ventry{sleepAcc: z}
			keys = append(keys, k)
		}

		if e.seen(0, 0, nil) || e.finalize(0, 0, nil, 3) != 0 {
			t.Fatal("unallocated stripe answered for the zero key")
		}
		insert([2]uint64{0, 0})
		for slots := 0; len(ref) < distinct; {
			if len(s.slots) != slots { // the last operation doubled the table
				slots = len(s.slots)
				stripeAudit(t, s, ref)
			}
			switch op := rng.Intn(20); {
			case op < 7:
				insert(freshKey())
			case op < 17: // duplicate arrival, the workload's common case
				k := keys[rng.Intn(len(keys))]
				z, want := mask(), ref[k]
				wantMissing := dupMerge(&want, z)
				st, missing := e.claim(k[0], k[1], nil, z)
				if st != claimDup || missing != wantMissing {
					t.Fatalf("seed %d: duplicate %x: status %d missing %b, want %b", seed, k, st, missing, wantMissing)
				}
				ref[k] = want
			case op < 19:
				k := keys[rng.Intn(len(keys))]
				if ref[k].finalized {
					continue
				}
				tmask, want := mask(), ref[k]
				wantZ := finalizeEntry(&want, tmask)
				if z := e.finalize(k[0], k[1], nil, tmask); z != wantZ {
					t.Fatalf("seed %d: finalize %x returned %b, want %b", seed, k, z, wantZ)
				}
				ref[k] = want
			default:
				k := freshKey()
				if rng.Intn(2) == 0 {
					k = keys[rng.Intn(len(keys))]
				}
				_, want := ref[k]
				if got := e.seen(k[0], k[1], nil); got != want {
					t.Fatalf("seed %d: seen(%x)=%v, want %v", seed, k, got, want)
				}
			}
		}
		stripeAudit(t, s, ref)
		if len(s.slots) < 4096 {
			t.Fatalf("table stopped at %d slots", len(s.slots))
		}
		if got := e.h1Collisions.Load(); got != collisions {
			t.Errorf("seed %d: visited_h1_collisions=%d, reference %d", seed, got, collisions)
		}

		// The budget is spent: the next new key is refused and leaves no
		// trace, while known keys still answer as duplicates.
		k := freshKey()
		if st, _ := e.claim(k[0], k[1], nil, 0); st != claimTruncated {
			t.Fatalf("seed %d: claim past MaxStates returned %d", seed, st)
		}
		if e.seen(k[0], k[1], nil) || e.states.Load() != distinct || !e.truncated.Load() || !e.cancel.Load() {
			t.Errorf("seed %d: refused claim left a trace: states=%d truncated=%v", seed, e.states.Load(), e.truncated.Load())
		}
		if st, _ := e.claim(0, 0, nil, 0); st != claimDup {
			t.Errorf("seed %d: zero key after truncation: status %d", seed, st)
		}
		stripeAudit(t, s, ref)
		for i := 1; i < visitedStripes; i++ {
			if e.visited.stripes[i].slots != nil {
				t.Fatalf("stripe %d allocated by keys of stripe 0", i)
			}
		}
	}
}

// TestVisitedHashPair pins the one-pass hashPair to the two functions it
// replaced, at every length across the word loop and the byte tail, and
// to values recorded before it existed: checkpoint headers carry
// rootIdentity's pair, so a drift would orphan every saved checkpoint.
func TestVisitedHashPair(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 257; n++ {
		b := make([]byte, n)
		rng.Read(b)
		h1, h2 := hashPair(b)
		if w1, w2 := fnv64a(b), hash2(b); h1 != w1 || h2 != w2 {
			t.Fatalf("len %d: hashPair=(%#x,%#x), fnv64a/hash2=(%#x,%#x)", n, h1, h2, w1, w2)
		}
	}

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
// all claims on the large workloads, mutates its slot in place.
func TestVisitedDuplicateClaimAllocs(t *testing.T) {
	e := &engine{maxStates: 1 << 20, visited: newVisitedSet(false)}
	fp := make([]byte, 256)
	h1, h2 := hashPair(fp)
	if st, _ := e.claim(h1, h2, fp, 0); st != claimWon {
		t.Fatalf("first claim: status %d", st)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h1, h2 := hashPair(fp)
		if st, _ := e.claim(h1, h2, fp, 0); st != claimDup {
			t.Fatalf("status %d", st)
		}
	}); n != 0 {
		t.Errorf("duplicate claim allocates %.1f objects", n)
	}
}

// visitedClaimKeys is BenchmarkVisitedClaim's input: 1 M key pairs of
// which 65 % repeat an earlier one, explore-plain's duplicate mix.
func visitedClaimKeys() [][2]uint64 {
	rng := rand.New(rand.NewSource(7))
	keys := make([][2]uint64, 1<<20)
	fresh := 0
	for i := range keys {
		if fresh > 0 && rng.Intn(100) < 65 {
			keys[i] = keys[rng.Intn(i)]
			continue
		}
		keys[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
		fresh++
	}
	return keys
}

// BenchmarkVisitedClaim times the visited set alone: one op claims the
// whole 1 M-key sequence into a fresh set, split between the stated
// number of goroutines.
func BenchmarkVisitedClaim(b *testing.B) {
	keys := visitedClaimKeys()
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := &engine{maxStates: 1 << 30, visited: newVisitedSet(false)}
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(part [][2]uint64) {
						defer wg.Done()
						for _, k := range part {
							e.claim(k[0], k[1], nil, 0)
						}
					}(keys[w*len(keys)/g : (w+1)*len(keys)/g])
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/claim")
		})
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
