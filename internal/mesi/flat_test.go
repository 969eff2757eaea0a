package mesi

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
)

// TestFlatStateCopiesAndLRU is the property test for the dense cache
// representation: after random traffic, with and without bounded caches,
// every way of copying a system reproduces its fingerprint, a renamed
// copy under a non-identity rotation with pid-valued words equals the
// word-by-word reference below, the invariants (resident counts
// included) hold, and a capacity eviction removes exactly the line a
// per-access tick table says is least recently used.
func TestFlatStateCopiesAndLRU(t *testing.T) {
	const procs, words = 3, 12
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := arch.DefaultConfig()
		cfg.Procs, cfg.MemWords, cfg.Links = procs, words, 2
		cfg.Protocol = []arch.Protocol{arch.MESI, arch.MSI, arch.MOESI}[seed%3]
		s := NewSystem(cfg)
		capacity := 0
		if seed%2 == 1 {
			capacity = 2 + rng.Intn(3)
			for p := 0; p < procs; p++ {
				s.SetCacheCapacity(arch.ProcID(p), capacity)
			}
		}
		// A recycled destination with unrelated content, as the model
		// checker's free list hands out.
		dirty := NewSystem(cfg)
		dirty.Write(0, 1, 5)
		dirty.Read(1, 1)
		dirty.ReadExclusive(2, 7)
		dirty.ArmGuard(2, 7)
		dirty.ArmGuard(2, 3)

		identSlot := []int{0, 1, 2}
		identAddr := make([]arch.Addr, words)
		for a := range identAddr {
			identAddr[a] = arch.Addr(a)
		}
		identVal := func(_ arch.Addr, w arch.Word) arch.Word { return w }

		// A ring rotation by one: caches move 0->1->2->0, the block words
		// 2, 5, 8 rotate with their owners, and words 5 (a block word) and
		// 10 hold pid-encoded values that are relabeled the same way.
		rotSlot := []int{1, 2, 0}
		rotAddr := append([]arch.Addr(nil), identAddr...)
		rotAddr[2], rotAddr[5], rotAddr[8] = 5, 8, 2
		rotTouched := []arch.Addr{2, 5, 8, 10}
		rotVal := func(a arch.Addr, w arch.Word) arch.Word {
			if (a == 5 || a == 10) && w >= 1 && w <= procs {
				return w%procs + 1
			}
			return w
		}
		ref := NewSystem(cfg)

		var lastUse [procs][words]int // reference LRU ticks
		resident := func(p arch.ProcID) []arch.Addr {
			var as []arch.Addr
			for a := 0; a < words; a++ {
				if s.StateOf(p, arch.Addr(a)) != Invalid {
					as = append(as, arch.Addr(a))
				}
			}
			return as
		}
		for step := 1; step <= 150; step++ {
			p := arch.ProcID(rng.Intn(procs))
			addr := arch.Addr(rng.Intn(words))
			before := resident(p)
			switch rng.Intn(4) {
			case 0:
				s.Read(p, addr)
			case 1:
				if rng.Intn(2) == 0 {
					s.Write(p, addr, arch.Word(rng.Intn(procs+2))) // pid-range values
				} else {
					s.Write(p, addr, arch.Word(rng.Uint32()))
				}
			case 2:
				s.ReadExclusive(p, addr)
			case 3:
				s.ReadExclusive(p, addr)
				s.ArmGuard(p, addr)
			}
			lastUse[p][addr] = step

			// The reference: p's cache gains addr and, when that exceeds the
			// capacity, loses its least recently used other line.
			want := map[arch.Addr]bool{addr: true}
			victim, full := arch.Addr(0), false
			for _, a := range before {
				want[a] = true
				if a != addr && (!full || lastUse[p][a] < lastUse[p][victim]) {
					victim, full = a, true
				}
			}
			if capacity > 0 && len(want) > capacity && full {
				delete(want, victim)
				if s.Guarded(p, victim) {
					t.Fatalf("seed %d step %d: evicted line 0x%x still guarded", seed, step, uint32(victim))
				}
			}
			after := resident(p)
			if len(after) != len(want) {
				t.Fatalf("seed %d step %d: P%d holds %v, reference %v", seed, step, p, after, want)
			}
			for _, a := range after {
				if !want[a] {
					t.Fatalf("seed %d step %d: P%d holds %v, reference %v (LRU victim 0x%x)", seed, step, p, after, want, uint32(victim))
				}
			}

			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if step%10 != 0 {
				continue
			}
			fp := s.Fingerprint(nil)
			if got := s.Clone().Fingerprint(nil); !bytes.Equal(got, fp) {
				t.Fatalf("seed %d step %d: Clone fingerprints differently", seed, step)
			}
			dirty.CopyFrom(s)
			if got := dirty.Fingerprint(nil); !bytes.Equal(got, fp) {
				t.Fatalf("seed %d step %d: CopyFrom into a used system fingerprints differently", seed, step)
			}
			if err := dirty.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: after CopyFrom: %v", seed, step, err)
			}
			dirty.Write(1, addr, 99) // dirty it again, differently
			dirty.CopyRenamedFrom(s, identSlot, identAddr, nil, identVal)
			if got := dirty.Fingerprint(nil); !bytes.Equal(got, fp) {
				t.Fatalf("seed %d step %d: identity CopyRenamedFrom fingerprints differently", seed, step)
			}
			if err := dirty.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: after CopyRenamedFrom: %v", seed, step, err)
			}
			dirty.CopyRenamedFrom(s, rotSlot, rotAddr, rotTouched, rotVal)
			copyRenamedWordByWord(ref, s, rotSlot, rotAddr, rotVal)
			if !reflect.DeepEqual(dirty.mem, ref.mem) {
				t.Fatalf("seed %d step %d: rotated memory %v, reference %v", seed, step, dirty.mem, ref.mem)
			}
			for i := range ref.caches {
				got, want := &dirty.caches[i], &ref.caches[i]
				if !reflect.DeepEqual(got.lines, want.lines) || got.resident != want.resident ||
					got.capacity != want.capacity || !reflect.DeepEqual(got.guards, want.guards) {
					t.Fatalf("seed %d step %d: rotated cache %d differs from the word-by-word reference", seed, step, i)
				}
			}
			if err := dirty.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: after rotated CopyRenamedFrom: %v", seed, step, err)
			}
		}
	}
}

// copyRenamedWordByWord is the reference CopyRenamedFrom is checked
// against: one indirect store and one valOf call per word per cache,
// with no list of touched addresses to get wrong.
func copyRenamedWordByWord(s, src *System, slotOf []int, addrOf []arch.Addr, valOf func(arch.Addr, arch.Word) arch.Word) {
	for a, w := range src.mem {
		s.mem[addrOf[a]] = valOf(arch.Addr(a), w)
	}
	for i := range src.caches {
		sc, dc := &src.caches[i], &s.caches[slotOf[i]]
		dc.resident = sc.resident
		dc.capacity = sc.capacity
		for a, l := range sc.lines {
			if l.state() != Invalid {
				l.val = valOf(arch.Addr(a), l.val)
			}
			dc.lines[addrOf[a]] = l
		}
		dc.guards = dc.guards[:0]
		for _, a := range sc.guards {
			dc.arm(addrOf[a])
		}
	}
}

// TestOutOfRangeAddressPanics: the dense arrays are indexed by address,
// so every address-taking entry point must refuse an address beyond the
// memory with the package's own message, not a raw index panic.
func TestOutOfRangeAddressPanics(t *testing.T) {
	s := newSys(2)
	bad := arch.Addr(arch.DefaultConfig().MemWords)
	for name, call := range map[string]func(){
		"StateOf":       func() { s.StateOf(0, bad) },
		"Guarded":       func() { s.Guarded(0, bad) },
		"ArmGuard":      func() { s.ArmGuard(0, bad) },
		"DisarmGuard":   func() { s.DisarmGuard(0, bad) },
		"Read":          func() { s.Read(0, bad) },
		"Write":         func() { s.Write(0, bad, 1) },
		"ReadExclusive": func() { s.ReadExclusive(0, bad) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of range") {
					t.Errorf("recovered %q, want the mesi out-of-range panic", msg)
				}
			}()
			call()
		})
	}
}

// TestUpgradeRetriesWhenHandlerTakesLine: a guard armed on a Shared line
// (the TSO machine never does this, the API allows it) lets the snoop of
// an S->M upgrade run a handler that writes the same address and
// invalidates the upgrader's copy mid-transaction. The upgrade must then
// complete as a miss, ordered after the handler's store; the map-based
// cache dropped the upgrader's store on the floor here.
func TestUpgradeRetriesWhenHandlerTakesLine(t *testing.T) {
	for _, viaLE := range []bool{false, true} {
		cfg := arch.DefaultConfig()
		cfg.Procs = 2
		cfg.Protocol = arch.MOESI
		s := NewSystem(cfg)
		s.Write(0, 4, 1)
		s.Read(1, 4) // P0 Owned, P1 Shared
		s.ArmGuard(1, 4)
		s.SetGuardHandler(1, func(a arch.Addr, _ GuardReason) { s.Write(1, a, 7) })
		want := Modified
		if viaLE {
			want = Exclusive // the handler's store was written back; the refill is clean
			if v, _ := s.ReadExclusive(0, 4); v != 7 {
				t.Errorf("LE read %d, want the handler's 7", v)
			}
		} else {
			s.Write(0, 4, 5)
			if v := s.CoherentValue(4); v != 5 {
				t.Errorf("coherent value %d, want the upgrader's 5 (ordered after the handler's 7)", v)
			}
		}
		if st := s.StateOf(0, 4); st != want || s.StateOf(1, 4) != Invalid {
			t.Errorf("viaLE=%v: P0 %v, P1 %v, want %v and I", viaLE, st, s.StateOf(1, 4), want)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("viaLE=%v: %v", viaLE, err)
		}
	}
}

// TestNonPositiveLinks: arch.Config.Links <= 0 means one link, so it must
// not reach the guard list's capacity as is.
func TestNonPositiveLinks(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Links = -1
	s := NewSystem(cfg)
	s.ArmGuard(0, 3)
	if a, ok := s.GuardArmed(0); !ok || a != 3 {
		t.Errorf("GuardArmed = 0x%x, %v, want 0x3, true", uint32(a), ok)
	}
}

// checkerSystem is the shape the model checker copies per state: 3
// processors over 16 words, a few lines in every cache and armed guards.
func checkerSystem() *System {
	cfg := arch.DefaultConfig()
	cfg.Procs, cfg.MemWords = 3, 16
	s := NewSystem(cfg)
	for a := arch.Addr(0); a < 12; a++ {
		s.Write(arch.ProcID(a%3), a, arch.Word(a)+1)
	}
	s.Read(1, 0)
	s.Read(2, 1)
	s.ReadExclusive(0, 14)
	s.ArmGuard(0, 14)
	s.ReadExclusive(1, 15)
	s.ArmGuard(1, 15)
	return s
}

func TestHotPathDoesNotAllocate(t *testing.T) {
	src, dst := checkerSystem(), checkerSystem()
	dst.Write(2, 14, 3) // breaks P0's guard: dst now differs in lines and guards
	buf := src.Fingerprint(nil)
	for name, f := range map[string]func(){
		"CopyFrom":    func() { dst.CopyFrom(src) },
		"Fingerprint": func() { buf = src.Fingerprint(buf[:0]) },
		"Read/Write miss": func() {
			dst.Write(0, 5, 1) // P1 holds it Modified: BusRdX miss
			dst.Write(1, 5, 2) // and back
			dst.Read(2, 5)     // BusRd miss, downgrading P1
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

func BenchmarkSystemCopyFrom(b *testing.B) {
	src, dst := checkerSystem(), checkerSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.CopyFrom(src)
	}
}

func BenchmarkSystemFingerprint(b *testing.B) {
	s := checkerSystem()
	buf := s.Fingerprint(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.Fingerprint(buf[:0])
	}
}
