package mesi

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// TestDirtyContract holds the dirty flags to their contract: a cache (or
// the memory image) whose flag is clear encodes byte-identically to when
// the flags were last cleared. Seeded random traffic of every kind the
// simulator issues (Read, ReadExclusive, Write, arming and disarming
// guards) runs over all three protocols with one and two links, with
// unbounded and bounded caches (evictions, guard breaks on eviction), and
// with guard handlers that write like a store-buffer flush, so one call
// rewrites several caches and memory. Every fourth step continues on a
// CopyFrom copy, which must stand where its source stood.
func TestDirtyContract(t *testing.T) {
	const procs, words = 3, 10
	components, changed, cleanChanged := 0, 0, 0
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := arch.DefaultConfig()
		cfg.Procs, cfg.MemWords = procs, words
		cfg.Protocol = []arch.Protocol{arch.MESI, arch.MSI, arch.MOESI}[seed%3]
		cfg.Links = 1 + int(seed/3%2)
		build := func() *System {
			s := NewSystem(cfg)
			for p := 0; p < procs; p++ {
				p := arch.ProcID(p)
				if seed/6%2 == 1 {
					s.SetCacheCapacity(p, 2+int(seed%3))
				}
				// The link-break flush: the broken processor completes a
				// store of its own before the requester proceeds.
				s.SetGuardHandler(p, func(addr arch.Addr, _ GuardReason) {
					s.Write(p, (addr+3)%words, arch.Word(addr)+100)
				})
			}
			return s
		}
		s, spare := build(), build()
		encode := func() [][]byte {
			enc := make([][]byte, procs+1)
			for i := 0; i < procs; i++ {
				enc[i] = s.FingerprintCache(i, nil)
			}
			enc[procs] = s.FingerprintMem(nil)
			return enc
		}
		for step := 0; step < 200; step++ {
			before := encode()
			s.ClearDirty()
			if step%4 == 3 {
				// Dirty the copy's destination first: its own flags and
				// state must not survive the copy.
				spare.Write(0, arch.Addr(rng.Intn(words)), 9)
				spare.ClearDirty()
				spare.CopyFrom(s)
				s, spare = spare, s
			}
			p, addr := arch.ProcID(rng.Intn(procs)), arch.Addr(rng.Intn(words))
			switch rng.Intn(8) {
			case 0, 1:
				s.Read(p, addr)
			case 2:
				s.ReadExclusive(p, addr)
			case 3, 4:
				s.Write(p, addr, arch.Word(rng.Intn(4)))
			case 5:
				s.ReadExclusive(p, addr)
				s.ArmGuard(p, addr)
			case 6:
				s.DisarmGuard(p, addr)
			case 7:
				s.DisarmAllGuards(p)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for i, enc := range encode() {
				dirty := s.MemDirty()
				if i < procs {
					dirty = s.CacheDirty(i)
				}
				components++
				if !bytes.Equal(enc, before[i]) {
					changed++
					if !dirty {
						if cleanChanged++; cleanChanged <= 3 {
							t.Errorf("seed %d step %d: component %d changed with its dirty flag clear:\n before %x\n after  %x",
								seed, step, i, before[i], enc)
						}
					}
				}
			}
		}
	}
	t.Logf("%d component checks, %d changed, %d changed while clean", components, changed, cleanChanged)
	if changed == 0 {
		t.Error("no component ever changed: the test compared nothing")
	}
}
