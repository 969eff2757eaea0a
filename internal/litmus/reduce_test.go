package litmus

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// reductionSpaces is the differential corpus: the full litmus catalog
// plus every classic mutual-exclusion protocol, with properties where
// they apply.
func reductionSpaces() []struct {
	name  string
	build func() *tso.Machine
	props []Property
} {
	type space = struct {
		name  string
		build func() *tso.Machine
		props []Property
	}
	var spaces []space
	for _, ct := range Catalog() {
		progs := ct.Build()
		cfg := arch.DefaultConfig()
		cfg.Procs = len(progs)
		cfg.MemWords = 16
		cfg.StoreBufferDepth = 4
		spaces = append(spaces, space{
			name:  "catalog/" + ct.Name,
			build: func() *tso.Machine { return tso.NewMachine(cfg, progs...) },
		})
	}
	me := []Property{MutualExclusion}
	for _, v := range []programs.DekkerVariant{
		programs.DekkerNoFence, programs.DekkerMfence, programs.DekkerLmfence,
		programs.DekkerLmfenceMirrored,
	} {
		p0, p1 := programs.DekkerPair(v)
		spaces = append(spaces, space{"dekker/" + v.String(), machineFor(p0, p1), me})
	}
	p0, p1 := programs.PetersonPair(programs.DekkerNoFence)
	spaces = append(spaces, space{"peterson/nofence", machineFor(p0, p1), me})
	p0, p1 = programs.PetersonPair(programs.DekkerMfence)
	spaces = append(spaces, space{"peterson/mfence", machineFor(p0, p1), me})
	p0, p1 = programs.BakeryPair(programs.DekkerNoFence)
	spaces = append(spaces, space{"bakery/nofence", machineFor(p0, p1), me})
	p0, p1 = programs.BakeryPair(programs.DekkerMfence)
	spaces = append(spaces, space{"bakery/mfence", machineFor(p0, p1), me})

	// Cyclic state graphs: catalog/protocol programs only loop through
	// shared-memory loads (never ample), so without these the corpus
	// cannot catch a missing cycle proviso. One space cycles through the
	// singleton ample tier (a pure control self-loop), one through the
	// whole-processor tier (a spin on a word no other processor names);
	// in both the violation is reachable only via the non-ample
	// processors the unprovisoed reduction would ignore forever.
	cs := func(name string) *tso.Program {
		return tso.NewBuilder(name).CSEnter().CSExit().Halt().Build()
	}
	spin := tso.NewBuilder("spin").Label("L").Jmp("L").Build()
	spaces = append(spaces, space{"cycle/jmpself", machineFor(spin, cs("c0"), cs("c1")), me})
	pspin := tso.NewBuilder("pspin").
		Label("L").StoreI(13, 1).Load(0, 13).Jmp("L").Build()
	spaces = append(spaces, space{"cycle/privspin", machineFor(pspin, cs("c2"), cs("c3")), me})

	// Mixed programs: an unfenced Dekker doorway (no backward edge, so its
	// ample candidates skip the proviso's probe) and a spin that cycles
	// through a private word until a releaser's go word lands (its
	// candidates take the probe), in either order; the CS comes last.
	const goWord = 12
	spinUntilGo := func(b *tso.Builder, priv arch.Addr) *tso.Builder {
		return b.Label("L").StoreI(priv, 1).Load(3, goWord).Beq(3, 0, "L")
	}
	doorway := func(b *tso.Builder, self, peer arch.Addr) *tso.Builder {
		return b.StoreI(self, 1).Load(1, peer).Bne(1, 0, "out")
	}
	release := tso.NewBuilder("release").StoreI(goWord, 1).Halt().Build()
	mixed := func(spinFirst bool) func() *tso.Machine {
		var progs []*tso.Program
		for i := arch.Addr(0); i < 2; i++ {
			b := tso.NewBuilder(fmt.Sprintf("t%d", i))
			if spinFirst {
				b = doorway(spinUntilGo(b, 10+i), 1+i, 2-i)
			} else {
				b = spinUntilGo(doorway(b, 1+i, 2-i), 10+i)
			}
			progs = append(progs, b.CSEnter().CSExit().Label("out").Halt().Build())
		}
		return machineFor(append(progs, release)...)
	}
	spaces = append(spaces,
		space{"cycle/doorway-spin", mixed(false), me},
		space{"cycle/spin-doorway", mixed(true), me})
	for _, sp := range spinnerSpaces() {
		spaces = append(spaces, space{sp.name, sp.build, me})
	}
	return spaces
}

// spinnerSpaces is the spinner family: one processor spins forever on a
// loop body of one shape, first or last, beside two or three
// "cs_enter; cs_exit; halt" threads, so every violation needs the
// reduction to run the CS threads around a cycle it could close on. The
// first-position st, st-st, st-nop, nop and ld spinners are the ones a
// wholly asleep ample set on a cycle used to hide every violation of
// (reduce.go, "Asleep ample sets").
func spinnerSpaces() []spinnerSpace {
	shapes := []struct {
		name string
		body func(*tso.Builder) *tso.Builder
	}{
		{"jmp", func(b *tso.Builder) *tso.Builder { return b }},
		{"nop", func(b *tso.Builder) *tso.Builder { return b.Nop() }},
		{"st", func(b *tso.Builder) *tso.Builder { return b.StoreI(13, 1) }},
		{"st-st", func(b *tso.Builder) *tso.Builder { return b.StoreI(13, 1).StoreI(14, 1) }},
		{"st-nop", func(b *tso.Builder) *tso.Builder { return b.StoreI(13, 1).Nop() }},
		{"ld", func(b *tso.Builder) *tso.Builder { return b.Load(0, 13) }},
		{"st-ld", func(b *tso.Builder) *tso.Builder { return b.StoreI(13, 1).Load(0, 13) }},
	}
	var out []spinnerSpace
	for _, sh := range shapes {
		spin := sh.body(tso.NewBuilder("spin-" + sh.name).Label("L")).Jmp("L").Build()
		for _, ncs := range []int{2, 3} {
			var cs []*tso.Program
			for i := 0; i < ncs; i++ {
				cs = append(cs, tso.NewBuilder(fmt.Sprintf("cs%d", i)).CSEnter().CSExit().Halt().Build())
			}
			name := fmt.Sprintf("cycle/spinner-%s/%%s/%dcs", sh.name, ncs)
			out = append(out,
				spinnerSpace{fmt.Sprintf(name, "first"), machineFor(append([]*tso.Program{spin}, cs...)...)},
				spinnerSpace{fmt.Sprintf(name, "last"), machineFor(append(cs, spin)...)})
		}
	}
	return out
}

type spinnerSpace struct {
	name  string
	build func() *tso.Machine
}

// TestReductionDifferential pins the reduction's preservation contract
// on the whole corpus: against the unreduced serial reference, the
// reduced serial engine and the reduced parallel engine (1 and 4
// workers) must produce the identical Outcomes multiset, the identical
// Deadlocks count, and the identical violation verdict for the stable
// MutualExclusion property — while never exploring more states. The
// parallel engine also runs with StopOnViolation, in its
// refutation-first order, and must reach the same verdict. Without
// Reduction the parallel engine runs sleep sets alone (reduce.go, "Sleep
// sets alone"), and at 1 and 4 workers it must equal the reference
// exactly (sameCounts); TestSleepSetsKeepEveryState holds the same
// equality under the other protocols and SC.
func TestReductionDifferential(t *testing.T) {
	for _, sp := range reductionSpaces() {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			full := ExploreSerial(sp.build, Options{Properties: sp.props})
			check := func(tag string, red Result) {
				t.Helper()
				if red.Truncated != full.Truncated {
					t.Errorf("%s: Truncated=%v, reference=%v", tag, red.Truncated, full.Truncated)
				}
				if !reflect.DeepEqual(red.Outcomes, full.Outcomes) {
					t.Errorf("%s: Outcomes diverge:\nreduced:   %v\nreference: %v",
						tag, red.Outcomes, full.Outcomes)
				}
				if red.Deadlocks != full.Deadlocks {
					t.Errorf("%s: Deadlocks=%d, reference=%d", tag, red.Deadlocks, full.Deadlocks)
				}
				if (red.Violations > 0) != (full.Violations > 0) {
					t.Errorf("%s: violation verdict %v, reference %v",
						tag, red.Violations > 0, full.Violations > 0)
				}
				if red.States > full.States {
					t.Errorf("%s: reduced exploration grew: %d states vs %d",
						tag, red.States, full.States)
				}
				if red.Violations > 0 {
					if m := Replay(sp.build, red.ViolationTrace); !m.CSViolation {
						t.Errorf("%s: violation trace does not replay to a violation", tag)
					}
				}
			}
			check("serial", ExploreSerial(sp.build, Options{Properties: sp.props, Reduction: true}))
			for _, workers := range []int{1, 4} {
				if diff := sameCounts(Explore(sp.build, Options{Properties: sp.props, Workers: workers}), full); diff != "" {
					t.Errorf("sleep sets alone, workers=%d: %s", workers, diff)
				}
				red := Explore(sp.build, Options{
					Properties: sp.props, Reduction: true, Workers: workers,
				})
				check("parallel", red)
				// A run that stops at its first violation expands drains
				// first; it must reach the same verdict, and a run that
				// finds none has explored everything.
				stop := Explore(sp.build, Options{
					Properties: sp.props, Reduction: true, Workers: workers, StopOnViolation: true,
				})
				if stop.Obs.Gauges["search_refutation_first"] != 1 {
					t.Errorf("stop: refutation-first order not reported")
				}
				if stop.Violations == 0 {
					check("stop", stop)
				} else if full.Violations == 0 {
					t.Errorf("stop: violation verdict true, reference false")
				} else if m := Replay(sp.build, stop.ViolationTrace); !m.CSViolation {
					t.Errorf("stop: violation trace does not replay to a violation")
				}
			}
		})
	}
}

// TestReductionRatio is the acceptance bar: on SB, Dekker, and bakery
// the reduced serial search must explore at least half the states of
// the unreduced reference.
func TestReductionRatio(t *testing.T) {
	cases := []struct {
		name  string
		build func() *tso.Machine
	}{}
	sb0, sb1 := catalogPair("SB")
	cases = append(cases, struct {
		name  string
		build func() *tso.Machine
	}{"sb", machineFor(sb0, sb1)})
	d0, d1 := programs.DekkerPair(programs.DekkerNoFence)
	cases = append(cases, struct {
		name  string
		build func() *tso.Machine
	}{"dekker", machineFor(d0, d1)})
	b0, b1 := programs.BakeryPair(programs.DekkerNoFence)
	cases = append(cases, struct {
		name  string
		build func() *tso.Machine
	}{"bakery", machineFor(b0, b1)})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			full := ExploreSerial(c.build, Options{})
			red := ExploreSerial(c.build, Options{Reduction: true})
			if red.States*2 > full.States {
				t.Errorf("reduction below 2x: %d reduced vs %d full states", red.States, full.States)
			}
			if g := red.Obs.Gauges["reduction"]; g != 1 {
				t.Errorf("reduction gauge = %v; want 1", g)
			}
			if n := red.Obs.Counters["por_ample_states"]; n == 0 {
				t.Error("por_ample_states = 0; want > 0")
			}
		})
	}
}

// TestReductionCycleProviso pins the fix for the ignoring problem. A
// pure control self-loop ("L: jmp L") is a core-only singleton ample
// set at every state it reaches; without a cycle proviso the reduced
// search expands only that jmp, closes the cycle on the visited set
// after a single state, and never runs the processors that latch the
// mutual-exclusion violation — contradicting the stable-property
// reachability guarantee synth's CEGAR loop relies on. The closed-set
// proviso must demote such states to full expansion (visible in the
// por_proviso_fallbacks counter) and find the violation.
func TestReductionCycleProviso(t *testing.T) {
	spin := tso.NewBuilder("spin").Label("L").Jmp("L").Build()
	cs := func(name string) *tso.Program {
		return tso.NewBuilder(name).CSEnter().CSExit().Halt().Build()
	}
	build := machineFor(spin, cs("p1"), cs("p2"))
	props := []Property{MutualExclusion}

	full := ExploreSerial(build, Options{Properties: props})
	if full.Violations == 0 {
		t.Fatal("unreduced reference found no violation; the test space is broken")
	}

	check := func(tag string, red Result) {
		t.Helper()
		if red.Violations == 0 {
			t.Errorf("%s: reduced search missed the violation (%d states explored) — ignoring problem",
				tag, red.States)
		}
		if red.Deadlocks != full.Deadlocks {
			t.Errorf("%s: Deadlocks=%d, reference=%d", tag, red.Deadlocks, full.Deadlocks)
		}
		if !reflect.DeepEqual(red.Outcomes, full.Outcomes) {
			t.Errorf("%s: Outcomes diverge from reference", tag)
		}
		if n := red.Obs.Counters["por_proviso_fallbacks"]; n == 0 {
			t.Errorf("%s: por_proviso_fallbacks = 0; want > 0", tag)
		}
		if red.Violations > 0 {
			if m := Replay(build, red.ViolationTrace); !m.CSViolation {
				t.Errorf("%s: violation trace does not replay to a violation", tag)
			}
		}
	}
	check("serial", ExploreSerial(build, Options{Properties: props, Reduction: true}))
	for _, workers := range []int{1, 4} {
		check(fmt.Sprintf("parallel/%d", workers), Explore(build, Options{
			Properties: props, Reduction: true, Workers: workers,
		}))
	}
}

// TestReductionTooManyProcs: a machine beyond the mask budget must fall
// back to unreduced exploration and still agree with the reference.
func TestReductionTooManyProcs(t *testing.T) {
	n := maxReductionProcs + 1
	progs := make([]*tso.Program, n)
	for i := range progs {
		b := tso.NewBuilder("wide")
		if i < 2 {
			b = b.StoreI(programs.AddrX, arch.Word(i+1)).Load(0, programs.AddrX)
		}
		progs[i] = b.Halt().Build()
	}
	cfg := arch.DefaultConfig()
	cfg.Procs = n
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	build := func() *tso.Machine { return tso.NewMachine(cfg, progs...) }

	full := ExploreSerial(build, Options{})
	red := ExploreSerial(build, Options{Reduction: true})
	if red.States != full.States || !reflect.DeepEqual(red.Outcomes, full.Outcomes) {
		t.Errorf("fallback diverged: %d/%d states", red.States, full.States)
	}
	par := Explore(build, Options{Reduction: true, Workers: 2})
	if par.States != full.States || !reflect.DeepEqual(par.Outcomes, full.Outcomes) {
		t.Errorf("parallel fallback diverged: %d/%d states", par.States, full.States)
	}
}

// TestVisitedCollisionInjection forces every state onto one 64-bit
// primary hash. The overflow chains must keep distinct states distinct —
// the exploration result must be byte-identical to the serial reference,
// with the collisions counted in Result.Obs.
func TestVisitedCollisionInjection(t *testing.T) {
	t.Cleanup(func() { pairFilter = nil })
	pairFilter = func(_, h2 uint64, _ []byte) (uint64, uint64) {
		return 42, h2 // constant h1: all states collide
	}

	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	serial := ExploreSerial(build, Options{Properties: []Property{MutualExclusion}})
	for _, workers := range []int{1, 4} {
		par := Explore(build, Options{Properties: []Property{MutualExclusion}, Workers: workers})
		if par.States != serial.States {
			t.Errorf("workers=%d: States=%d, serial=%d (states merged by h1 collision?)",
				workers, par.States, serial.States)
		}
		if !reflect.DeepEqual(par.Outcomes, serial.Outcomes) {
			t.Errorf("workers=%d: Outcomes diverge under forced collisions", workers)
		}
		if par.Violations != serial.Violations {
			t.Errorf("workers=%d: Violations=%d, serial=%d", workers, par.Violations, serial.Violations)
		}
		if n := par.Obs.Counters["visited_h1_collisions"]; n != uint64(serial.States-1) {
			t.Errorf("workers=%d: visited_h1_collisions=%d, want %d (every state after the first)",
				workers, n, serial.States-1)
		}
	}
}

// TestVerifyVisited audits the 128-bit hashed keys against full
// fingerprints on a real state space: identical results, and zero
// silent merges.
func TestVerifyVisited(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	serial := ExploreSerial(build, Options{Properties: []Property{MutualExclusion}})
	ver := Explore(build, Options{
		Properties: []Property{MutualExclusion}, Workers: 4, VerifyVisited: true,
	})
	if ver.States != serial.States || !reflect.DeepEqual(ver.Outcomes, serial.Outcomes) {
		t.Errorf("VerifyVisited diverged: %d/%d states", ver.States, serial.States)
	}
	n, ok := ver.Obs.Counters["visited_128bit_collisions"]
	if !ok {
		t.Fatal("visited_128bit_collisions not reported under VerifyVisited")
	}
	if n != 0 {
		t.Errorf("%d distinct states silently merged by the 128-bit key", n)
	}

	// And with reduction on top: the audit must coexist with sleep sets.
	red := Explore(build, Options{
		Properties: []Property{MutualExclusion}, Workers: 4,
		VerifyVisited: true, Reduction: true,
	})
	if !reflect.DeepEqual(red.Outcomes, serial.Outcomes) {
		t.Error("VerifyVisited+Reduction: Outcomes diverged")
	}
	if n := red.Obs.Counters["visited_128bit_collisions"]; n != 0 {
		t.Errorf("VerifyVisited+Reduction: %d silent merges", n)
	}
}

// TestVerifyVisitedFoldedPair audits the pair folded from the machines'
// cached component digests against full fingerprints beyond the
// two-thread Dekker space: bakery2 and peterson2 with l-mfence (a link
// break rewrites a remote processor's components), whole, against the
// serial reference, and the first 60,000 states of peterson3; each
// unreduced and reduced. No two states may share a 128-bit key.
func TestVerifyVisitedFoldedPair(t *testing.T) {
	const cap3 = 60_000
	for _, sp := range []*programs.SymProtocol{
		programs.BakeryN(2, programs.DekkerLmfence),
		programs.PetersonN(2, programs.DekkerLmfence),
		programs.PetersonN(3, programs.DekkerMfence),
	} {
		opts := Options{}
		if len(sp.Progs) > 2 {
			opts.MaxStates = cap3
		}
		serial := ExploreSerial(sp.Build, opts)
		for _, reduction := range []bool{false, true} {
			opts.Workers, opts.VerifyVisited, opts.Reduction = 4, true, reduction
			ver := Explore(sp.Build, opts)
			if !reduction && ver.States != serial.States {
				t.Errorf("%s: %d states under the audit, serial %d", sp.Name, ver.States, serial.States)
			}
			if !serial.Truncated && !reflect.DeepEqual(ver.Outcomes, serial.Outcomes) {
				t.Errorf("%s reduction=%v: Outcomes diverged under the audit", sp.Name, reduction)
			}
			n, ok := ver.Obs.Counters["visited_128bit_collisions"]
			if !ok || n != 0 {
				t.Errorf("%s reduction=%v: visited_128bit_collisions = %d (reported %v), want 0", sp.Name, reduction, n, ok)
			}
			t.Logf("%s reduction=%v: %d states, %d silent merges", sp.Name, reduction, ver.States, n)
		}
	}
}

// TestVerifyVisitedCatchesInjectedMerge degrades BOTH hashes to
// constants; only the VerifyVisited full-fingerprint map can then keep
// states apart, and it must report the would-be merges.
func TestVerifyVisitedCatchesInjectedMerge(t *testing.T) {
	t.Cleanup(func() { pairFilter = nil })
	pairFilter = func(_, _ uint64, _ []byte) (uint64, uint64) { return 7, 7 }

	p0, p1 := catalogPair("SB")
	build := machineFor(p0, p1)
	serial := ExploreSerial(build, Options{})
	ver := Explore(build, Options{Workers: 2, VerifyVisited: true})
	if ver.States != serial.States || !reflect.DeepEqual(ver.Outcomes, serial.Outcomes) {
		t.Errorf("full-fingerprint map failed to keep states apart: %d/%d",
			ver.States, serial.States)
	}
	if n := ver.Obs.Counters["visited_128bit_collisions"]; n != uint64(serial.States-1) {
		t.Errorf("visited_128bit_collisions=%d, want %d", n, serial.States-1)
	}
}
