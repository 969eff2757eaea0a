package tso_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// componentEncodings returns m's 3n+1 state-key components in tuple
// order, each encoded from scratch.
func componentEncodings(m *tso.Machine) [][]byte {
	enc := make([][]byte, 0, 3*len(m.Procs)+1)
	for i, p := range m.Procs {
		enc = append(enc, m.FingerprintCore(i, nil), p.SB.Fingerprint(nil), m.Sys.FingerprintCache(i, nil))
	}
	return append(enc, m.Sys.FingerprintMem(nil))
}

// keyer returns the call that keys a machine from its component cache,
// as bytes appended to dst[:0]: the collapsed tuple in col's tables when
// exact, the KeyPair halves otherwise.
func keyer(exact bool) func(dst []byte, m *tso.Machine) []byte {
	col := tso.NewCollapser()
	var scratch []byte
	return func(dst []byte, m *tso.Machine) []byte {
		if exact {
			return col.Collapse(m, dst[:0], &scratch)
		}
		h1, h2 := m.KeyPair(&scratch)
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst[:0], h1), h2)
	}
}

// twoLinkRing is n threads that each run two l-mfences on locations of
// their own (both links live at once when cfg.Links is 2, a forced flush
// between them when it is 1) and then read their neighbours' guarded
// locations, so a load or a drain on one processor breaks a link on
// another and flushes that processor's store buffer.
func twoLinkRing(n int) []*tso.Program {
	progs := make([]*tso.Program, n)
	for i := range progs {
		own, next, prev := arch.Addr(2*i), arch.Addr(2*((i+1)%n)), arch.Addr(2*((i+n-1)%n)+1)
		progs[i] = tso.NewBuilder(fmt.Sprintf("ring%d", i)).
			StoreI(arch.Addr(2*n), arch.Word(i+1)).
			Lmfence(own, arch.Word(i+1), 6).
			Lmfence(own+1, arch.Word(i+1), 7).
			Load(1, next).
			StoreI(next, 9).
			Load(2, prev).
			CSEnter().
			Load(3, arch.Addr(2*n)).
			CSExit().
			Mfence().
			Halt().
			Build()
	}
	return progs
}

// TestStateKeyDirtyContract holds the key cache's stale flags to their
// contract — a component whose flag is clear encodes byte-identically to
// when the flag was last cleared — and the keys assembled from the cache
// to those of an Invalidate()d clone, along seeded random schedules of
// every step the simulator has (ExecStep, DrainStep, DrainClassStep,
// Interrupt) and CopyFrom hand-overs. The machines run l-mfence programs
// whose guard breaks flush a remote store buffer, under MSI / MESI /
// MOESI, with one and two links and with unbounded and bounded caches
// (capacity evictions break links too). Even seeds key with KeyPair, odd
// ones with Collapse.
func TestStateKeyDirtyContract(t *testing.T) {
	type shape struct {
		name  string
		progs []*tso.Program
		words int
	}
	d0, d1 := programs.DekkerPair(programs.DekkerLmfence)
	bakery := programs.BakeryN(3, programs.DekkerLmfence)
	peterson := programs.PetersonN(3, programs.DekkerLmfence)
	shapes := []shape{
		{"dekker-lmfence", []*tso.Program{d0, d1}, 16},
		{"ring3", twoLinkRing(3), 8},
		{bakery.Name, bakery.Progs, bakery.Cfg.MemWords},
		{peterson.Name, peterson.Progs, peterson.Cfg.MemWords},
	}
	checks, changed, cleanChanged, keyMismatches, restarts := 0, 0, 0, 0, 0
	var remoteBreaks, evictions uint64
	for seed := int64(0); seed < 96; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := shapes[seed%int64(len(shapes))]
		cfg := arch.DefaultConfig()
		cfg.Procs, cfg.MemWords = len(sh.progs), sh.words
		cfg.StoreBufferDepth = 2 + int(seed%3)
		cfg.Protocol = []arch.Protocol{arch.MESI, arch.MSI, arch.MOESI}[seed/4%3]
		cfg.Links = 1 + int(seed/12%2)
		build := func() *tso.Machine {
			m := tso.NewMachine(cfg, sh.progs...)
			if seed/24%2 == 1 {
				for p := range m.Procs {
					m.Sys.SetCacheCapacity(arch.ProcID(p), 2)
				}
			}
			return m
		}
		key := keyer(seed%2 == 1)
		var got, want []byte
		m, spare := build(), build()
		for step := 0; step < 400; step++ {
			got = key(got, m)
			ref := m.Clone()
			ref.Invalidate()
			if want = key(want, ref); !bytes.Equal(got, want) {
				if keyMismatches++; keyMismatches <= 3 {
					t.Errorf("%s seed %d step %d: key from the cache %x, from scratch %x", sh.name, seed, step, got, want)
				}
			}
			for i, stale := range m.StaleComponents() {
				if stale {
					t.Fatalf("%s seed %d step %d: component %d still stale after keying", sh.name, seed, step, i)
				}
			}
			before := componentEncodings(m)
			if step%5 == 4 {
				spare.CopyFrom(m)
				m, spare = spare, m
			}
			var ops []func()
			for p := range m.Procs {
				p := arch.ProcID(p)
				if m.CanExec(p) {
					ops = append(ops, func() { m.ExecStep(p) }, func() { m.ExecStep(p) })
				}
				if m.CanDrain(p) {
					ops = append(ops, func() { m.DrainStep(p) })
					class := rng.Intn(m.DrainClasses(p))
					ops = append(ops, func() { m.DrainClassStep(p, class) })
				}
			}
			if len(ops) == 0 {
				m = build() // quiesced: start over, every component stale
				restarts++
				continue
			}
			m.Sys.ResetStats()
			if rng.Intn(12) == 0 {
				m.Interrupt(arch.ProcID(rng.Intn(len(m.Procs))))
			} else {
				ops[rng.Intn(len(ops))]()
			}
			remoteBreaks += m.Sys.Stats().GuardBreaksRemote
			evictions += m.Sys.Stats().Evictions
			stale := m.StaleComponents()
			for i, enc := range componentEncodings(m) {
				checks++
				if bytes.Equal(enc, before[i]) {
					continue
				}
				changed++
				if !stale[i] {
					if cleanChanged++; cleanChanged <= 3 {
						t.Errorf("%s seed %d step %d: component %d changed with its stale flag clear:\n before %x\n after  %x",
							sh.name, seed, step, i, before[i], enc)
					}
				}
			}
		}
	}
	t.Logf("%d component checks, %d changed, %d changed while clean, %d key mismatches; %d remote link breaks, %d evictions, %d restarts",
		checks, changed, cleanChanged, keyMismatches, remoteBreaks, evictions, restarts)
	if changed == 0 || remoteBreaks == 0 || evictions == 0 {
		t.Error("the schedules never changed a component, broke a remote link or evicted a line: the test compared too little")
	}
}

// TestStateKeyMatchesReference: on every state the spaces the benchmark
// explores reach (bakery3 with two-entry buffers; peterson3 with and
// without its C_3 symmetry; bakery3 with l-mfence on the primary), the
// duplicates included, the hashed pair and the collapsed tuple assembled
// from the machine's component cache equal the ones an Invalidate()d
// copy computes from scratch. Each machine is keyed as the engine keys
// it: CopyFrom'd from a keyed parent, stepped once, canonicalized under
// symmetry. A space is walked whole in the key mode its benchmark
// workload runs in and to its first 40,000 states in the other; under
// -short, to 40,000 in both. The catalog under TSO, PSO and SC gets the
// same check in internal/litmus (TestStateKeyMatchesReferenceCatalog).
func TestStateKeyMatchesReference(t *testing.T) {
	bakery := depth2(programs.BakeryN(3, programs.DekkerMfence))
	peterson := depth2(programs.PetersonN(3, programs.DekkerMfence))
	primary := depth2(programs.BakeryN(3, programs.DekkerLmfence))
	primary.Name = "bakery3-lmfence-primary"
	primary.Progs = append(primary.Progs[:1:1], bakery.Progs[1:]...)
	for _, sp := range []struct {
		*programs.SymProtocol
		sym, exact bool // exact: the key mode walked whole
	}{
		{bakery, false, false},
		{peterson, false, true},
		{peterson, true, true},
		{primary, false, false},
	} {
		for _, exact := range []bool{false, true} {
			limit := 0
			if testing.Short() || exact != sp.exact {
				limit = 40_000
			}
			var canon *tso.Canonicalizer
			if sp.sym {
				canon = tso.NewCanonicalizer(sp.Sym, sp.Build())
			}
			key := keyer(exact)
			var got, want []byte
			ref := sp.Build()
			compared, mismatches := 0, 0
			states := walkStates(sp.SymProtocol, sp.sym, limit, func(m *tso.Machine) {
				cm := m
				if canon != nil {
					cm, _ = canon.Canonicalize(m)
				}
				got = key(got, cm)
				ref.CopyFrom(cm)
				ref.Invalidate()
				want = key(want, ref)
				compared++
				if !bytes.Equal(got, want) {
					if mismatches++; mismatches <= 3 {
						t.Errorf("%s state %d: key from the cache %x, from scratch %x", sp.Name, compared, got, want)
					}
				}
			})
			t.Logf("%s sym=%v exact=%v: %d states, %d keys compared, %d mismatches", sp.Name, sp.sym, exact, states, compared, mismatches)
			if mismatches > 0 {
				t.Errorf("%s sym=%v exact=%v: %d of %d keys from the cache differ from the from-scratch key", sp.Name, sp.sym, exact, mismatches, compared)
			}
		}
	}
}

// TestStateKeyDoesNotAllocate: the model checker keys every state it
// produces, through KeyPair with hashed keys, Collapse (warm tables) with
// exact ones and CollapsedKey (warm tables and id maps) with exact ones
// under symmetry, each right after the CopyFrom and step that produced
// the state; none of the four may allocate.
func TestStateKeyDoesNotAllocate(t *testing.T) {
	sp := depth2(programs.BakeryN(3, programs.DekkerMfence))
	var states []*tso.Machine
	walkOrbits(sp, 200, func(m *tso.Machine) {
		if len(states) < 200 {
			states = append(states, m.Clone())
		}
	})
	col := tso.NewCollapser()
	var scratch, key []byte
	dst := sp.Build()
	for _, s := range states { // warm the tables and the buffers
		key = col.Collapse(s, key[:0], &scratch)
	}
	i := 0
	step := func() *tso.Machine {
		dst.CopyFrom(states[i%len(states)])
		i++
		for p := range dst.Procs {
			if p := arch.ProcID(p); dst.CanDrain(p) {
				dst.DrainStep(p)
				break
			} else if dst.CanExec(p) {
				dst.ExecStep(p)
				break
			}
		}
		return dst
	}
	if n := testing.AllocsPerRun(400, func() { key = col.Collapse(step(), key[:0], &scratch) }); n != 0 {
		t.Errorf("CopyFrom + step + Collapse allocate %v times per state, want 0", n)
	}
	canon := tso.NewCanonicalizer(sp.Sym, sp.Build())
	for range states { // one lap of step's successors: every id they hold is learned
		key, _ = canon.CollapsedKey(col, step(), key[:0], &scratch)
	}
	_, misses := canon.KeyStats()
	if n := testing.AllocsPerRun(2*len(states), func() { key, _ = canon.CollapsedKey(col, step(), key[:0], &scratch) }); n != 0 {
		t.Errorf("CopyFrom + step + CollapsedKey allocate %v times per state, want 0", n)
	}
	if rotated, after := canon.KeyStats(); rotated == 0 || after != misses {
		t.Errorf("CollapsedKey on warm maps: %d rotated keys, %d misses after %d: the mapped path is not what was measured", rotated, after, misses)
	}
	for _, s := range states { // hand the caches over to digests
		keySink, _ = s.KeyPair(&scratch)
	}
	if n := testing.AllocsPerRun(400, func() { keySink, _ = step().KeyPair(&scratch) }); n != 0 {
		t.Errorf("CopyFrom + step + KeyPair allocate %v times per state, want 0", n)
	}
}

var keySink uint64

// keptSuccessors keeps the first 20,000 states the quotient walk of sp
// visits, each keyed by key (as the engine keeps a parent: keyed, every
// flag clear) and with one enabled step chosen up front, and returns the
// model checker's per-transition sequence short of the key: CopyFrom kept
// state i into one reused machine and take its step.
func keptSuccessors(sp *programs.SymProtocol, key func(m *tso.Machine)) func(i int) *tso.Machine {
	type kept struct {
		m     *tso.Machine
		pid   arch.ProcID
		drain bool
	}
	var states []kept
	walkOrbits(sp, 8_000, func(m *tso.Machine) {
		if len(states) >= 20_000 {
			return
		}
		k := kept{m: m.Clone()}
		key(k.m)
		for p := range m.Procs {
			p := arch.ProcID((p + len(states)) % len(m.Procs))
			if m.CanDrain(p) && len(states)%3 == 0 {
				k.pid, k.drain = p, true
				break
			}
			if m.CanExec(p) {
				k.pid = p
				break
			}
			if m.CanDrain(p) {
				k.pid, k.drain = p, true
				break
			}
		}
		states = append(states, k)
	})
	dst := sp.Build()
	return func(i int) *tso.Machine {
		k := &states[i%len(states)]
		dst.CopyFrom(k.m)
		switch {
		case k.drain:
			dst.DrainStep(k.pid)
		case dst.CanExec(k.pid):
			dst.ExecStep(k.pid)
		}
		return dst
	}
}

// BenchmarkStateKey times keying the successor of a kept state, the
// model checker's per-transition sequence: CopyFrom a state, take one
// step, key the result (keptSuccessors). On bakery3, step is the sequence
// without a key (the floor the others sit on), incremental keys with
// KeyPair from the machine's cache, and fingerprint is the from-scratch
// definition the engine used before: the full Fingerprint, then HashPair
// over it. On peterson3 under its C_3 symmetry, canonical-mapped is the
// exact key of the orbit representative through CollapsedKey's learned id
// maps (warm: every mode takes one untimed lap first) and
// canonical-materialized is its definition, Canonicalize onto the scratch
// machine and Collapse of that, which is what the engine ran per rotated
// state before.
func BenchmarkStateKey(b *testing.B) {
	var scratch, fp, key []byte
	bakery := keptSuccessors(depth2(programs.BakeryN(3, programs.DekkerMfence)), func(m *tso.Machine) { m.KeyPair(&scratch) })
	sp := depth2(programs.PetersonN(3, programs.DekkerMfence))
	col := tso.NewCollapser()
	canon := tso.NewCanonicalizer(sp.Sym, sp.Build())
	peterson := keptSuccessors(sp, func(m *tso.Machine) { key = col.Collapse(m, key[:0], &scratch) })
	for _, mode := range []struct {
		name string
		step func(i int) *tso.Machine
		key  func(m *tso.Machine) uint64
	}{
		{"step", bakery, func(m *tso.Machine) uint64 { return 0 }},
		{"incremental", bakery, func(m *tso.Machine) uint64 {
			h1, h2 := m.KeyPair(&scratch)
			return h1 ^ h2
		}},
		{"fingerprint", bakery, func(m *tso.Machine) uint64 {
			fp = m.Fingerprint(fp[:0])
			h1, h2 := tso.HashPair(fp)
			return h1 ^ h2
		}},
		{"canonical-mapped", peterson, func(m *tso.Machine) uint64 {
			key, _ = canon.CollapsedKey(col, m, key[:0], &scratch)
			return uint64(key[0])
		}},
		{"canonical-materialized", peterson, func(m *tso.Machine) uint64 {
			cm, _ := canon.Canonicalize(m)
			key = col.Collapse(cm, key[:0], &scratch)
			return uint64(key[0])
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < 20_000; i++ {
				keySink += mode.key(mode.step(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keySink += mode.key(mode.step(i))
			}
		})
	}
}
