package litmus

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// withConfig rebuilds the machines build returns on a copy of their
// config that edit changes (a coherence protocol, a memory model).
func withConfig(build func() *tso.Machine, edit func(*arch.Config)) func() *tso.Machine {
	root := build()
	cfg := root.Cfg
	edit(&cfg)
	progs := make([]*tso.Program, len(root.Procs))
	for i, p := range root.Procs {
		progs[i] = p.Prog
	}
	return func() *tso.Machine { return tso.NewMachine(cfg, progs...) }
}

// sameCounts describes how got differs from the unreduced reference ref
// on States, Transitions, Outcomes, Violations and Deadlocks; "" when it
// equals it on all five.
func sameCounts(got, ref Result) string {
	if got.States == ref.States && got.Transitions == ref.Transitions &&
		got.Violations == ref.Violations && got.Deadlocks == ref.Deadlocks &&
		reflect.DeepEqual(got.Outcomes, ref.Outcomes) {
		return ""
	}
	return fmt.Sprintf("states %d transitions %d violations %d deadlocks %d outcomes %d; reference %d %d %d %d %d",
		got.States, got.Transitions, got.Violations, got.Deadlocks, len(got.Outcomes),
		ref.States, ref.Transitions, ref.Violations, ref.Deadlocks, len(ref.Outcomes))
}

// TestSleepSetsKeepEveryState is the contract of sleep sets alone, the
// mode every unreduced TSO or SC exploration runs in (reduce.go, "Sleep
// sets alone"), beyond the MESI leg TestReductionDifferential runs: on
// the reduction corpus under MSI and MOESI and under SC, Explore without
// Reduction at 1 and 4 workers must equal the unreduced serial reference
// exactly on States, Transitions, Outcomes, Violations and Deadlocks.
// Transitions stays the full graph's edge count, executed or slept, and
// counts no re-expanded edge twice. The corpus's cyclic spaces are where
// a sleep set meets a state again on a cycle, so they hold the revisit
// rule to the same equality.
func TestSleepSetsKeepEveryState(t *testing.T) { sleepSetsKeepEveryState(t) }

// TestSleepSetsKeepEveryStateHeldFrame is the same contract with every
// worker keying frames one ahead from its first claim (run), which
// interleaves two branches of each worker's search.
func TestSleepSetsKeepEveryStateHeldFrame(t *testing.T) {
	pipelineFromFirstClaim(t)
	sleepSetsKeepEveryState(t)
}

func sleepSetsKeepEveryState(t *testing.T) {
	type leg struct {
		name  string
		proto arch.Protocol
		model arch.MemModel
	}
	legs := []leg{{"msi", arch.MSI, arch.TSO}, {"moesi", arch.MOESI, arch.TSO}, {"sc", arch.MESI, arch.SC}}
	var slept, reexp uint64
	for _, sp := range reductionSpaces() {
		for _, l := range legs {
			build := withConfig(sp.build, func(c *arch.Config) { c.Protocol, c.Model = l.proto, l.model })
			opts := Options{Properties: sp.props}
			ref := ExploreSerial(build, opts)
			if ref.Truncated {
				t.Fatalf("%s/%s: reference truncated", sp.name, l.name)
			}
			for _, workers := range []int{1, 4} {
				opts.Workers = workers
				got := Explore(build, opts)
				if diff := sameCounts(got, ref); diff != "" {
					t.Errorf("%s/%s workers=%d: %s", sp.name, l.name, workers, diff)
				}
				if _, ok := got.Obs.Gauges["reduction"]; ok {
					t.Errorf("%s/%s workers=%d: sleep sets alone reported the reduction gauge", sp.name, l.name, workers)
				}
				slept += got.Obs.Counters["por_slept_transitions"]
				reexp += got.Obs.Counters["por_reexpansions"]
			}
		}
	}
	// Without re-expansions the revisit rule, and its not counting an
	// edge twice, would go untested.
	if slept == 0 || reexp == 0 {
		t.Errorf("corpus slept %d edges and re-expanded %d; want both > 0", slept, reexp)
	}
	t.Logf("corpus: %d edges slept, %d re-expanded", slept, reexp)
	t.Run("symmetric", testSleepSetsKeepEveryOrbit)
}

// testSleepSetsKeepEveryOrbit is the symmetric leg of the contract: a
// run with Symmetry and no Reduction keeps its sleep masks, translated
// through the canonicalizer's slot map at the visited set's boundary,
// so Explore at 1 and 4 workers, hashed and collapsed, must equal the
// symmetric serial reference on all five counts. The looped rings close
// orbit cycles, and ringSB3's bystander is renamed unlike a member. The
// 3-process spaces run under LITMUS_HEAVY only.
func testSleepSetsKeepEveryOrbit(t *testing.T) {
	type space struct {
		name  string
		build func() *tso.Machine
		sym   *tso.Symmetry
		props []Property
	}
	var spaces []space
	for _, sp := range append(symSpaces(2), loopRing(2), loopRing(3)) {
		spaces = append(spaces, space{sp.Name, sp.Build, sp.Sym, []Property{MutualExclusion}})
	}
	for _, bystander := range []bool{false, true} {
		build, sym := ringSB3(bystander)
		spaces = append(spaces, space{fmt.Sprintf("ringsb3/bystander=%v", bystander), build, sym, nil})
	}
	heavy := os.Getenv("LITMUS_HEAVY") != "" && !testing.Short()
	var slept, reexp uint64
	for _, sp := range spaces {
		if len(sp.sym.Procs) > 2 && !heavy {
			continue
		}
		ref := ExploreSerial(sp.build, Options{Properties: sp.props, Symmetry: sp.sym})
		if ref.Truncated {
			t.Fatalf("%s: reference truncated", sp.name)
		}
		for _, workers := range []int{1, 4} {
			for _, collapse := range []bool{false, true} {
				got := Explore(sp.build, Options{
					Properties: sp.props, Symmetry: sp.sym, Workers: workers, Collapse: collapse,
				})
				if diff := sameCounts(got, ref); diff != "" {
					t.Errorf("%s workers=%d collapse=%v: %s", sp.name, workers, collapse, diff)
				}
				slept += got.Obs.Counters["por_slept_transitions"]
				reexp += got.Obs.Counters["por_reexpansions"]
			}
		}
	}
	if slept == 0 || reexp == 0 {
		t.Errorf("symmetric spaces slept %d edges and re-expanded %d; want both > 0", slept, reexp)
	}
	t.Logf("symmetric spaces (heavy=%v): %d edges slept, %d re-expanded", heavy, slept, reexp)
}

// TestSleepOnlyFinalizesAtClaim: a run with sleep sets alone expands
// every enabled action whatever the visited set holds, so its winning
// claim inserts the entry finalized, with the arriving sleep mask as
// pruned, and no finalize call follows. Such runs, at 1 and 4 workers,
// hashed and collapsed, with and without Symmetry, must make no finalize
// call and still equal the serial reference on all five counts; the
// re-expansions are what a pruned mask left unset at claim would lose.
// A reduced run must still finalize, or the hook counts nothing.
func TestSleepOnlyFinalizesAtClaim(t *testing.T) {
	finalizes := countFinalizes(t)
	var reexp uint64
	for _, sp := range append(symSpaces(2), loopRing(2)) {
		for _, sym := range []*tso.Symmetry{nil, sp.Sym} {
			opts := Options{Properties: []Property{MutualExclusion}, Symmetry: sym}
			ref := ExploreSerial(sp.Build, opts)
			for _, workers := range []int{1, 4} {
				for _, collapse := range []bool{false, true} {
					opts.Workers, opts.Collapse = workers, collapse
					finalizes.Store(0)
					got := Explore(sp.Build, opts)
					tag := fmt.Sprintf("%s symmetry=%v workers=%d collapse=%v", sp.Name, sym != nil, workers, collapse)
					if diff := sameCounts(got, ref); diff != "" {
						t.Errorf("%s: %s", tag, diff)
					}
					if n := finalizes.Load(); n != 0 {
						t.Errorf("%s: %d finalize calls; want none", tag, n)
					}
					reexp += got.Obs.Counters["por_reexpansions"]
				}
			}
		}
	}
	if reexp == 0 {
		t.Error("no run re-expanded an edge: the claim-time pruned masks went unread")
	}
	finalizes.Store(0)
	sp := programs.BakeryN(2, programs.DekkerMfence)
	Explore(sp.Build, Options{Properties: []Property{MutualExclusion}, Workers: 2, Reduction: true})
	if finalizes.Load() == 0 {
		t.Error("a reduced run made no finalize call")
	}
}

// TestSleepSetsEngaged holds where resolve runs sleep sets alone: an
// unreduced TSO bakery sleeps edges, with and without Symmetry, so the
// gain cannot silently switch off. PSO (its drains are not what the
// footprints model) and ExploreSerial, plain or symmetric, get no
// reducer at all, and Reduction with Symmetry forces every sleep mask
// empty (reduce.go, "Sleep sets alone").
func TestSleepSetsEngaged(t *testing.T) {
	sp := programs.BakeryN(2, programs.DekkerMfence)
	props := []Property{MutualExclusion}
	ref := ExploreSerial(sp.Build, Options{Properties: props})
	symRef := ExploreSerial(sp.Build, Options{Properties: props, Symmetry: sp.Sym})
	for name, r := range map[string]Result{"plain": ref, "symmetry": symRef} {
		if _, ok := r.Obs.Counters["por_slept_transitions"]; ok {
			t.Errorf("ExploreSerial %s ran sleep sets; it must stay the unreduced reference", name)
		}
	}
	for _, workers := range []int{1, 2} {
		for name, want := range map[string]Result{"plain": ref, "symmetry": symRef} {
			opts := Options{Properties: props, Workers: workers}
			if name == "symmetry" {
				opts.Symmetry = sp.Sym
			}
			r := Explore(sp.Build, opts)
			if n := r.Obs.Counters["por_slept_transitions"]; n == 0 {
				t.Errorf("workers=%d %s: por_slept_transitions = 0 on %s; want > 0", workers, name, sp.Name)
			}
			if r.States != want.States || r.Transitions != want.Transitions {
				t.Errorf("workers=%d %s: %d states %d transitions, reference %d %d",
					workers, name, r.States, r.Transitions, want.States, want.Transitions)
			}
		}
		pso := withConfig(sp.Build, func(c *arch.Config) { c.Model = arch.PSO })
		r := Explore(pso, Options{Properties: props, Workers: workers})
		if n, ok := r.Obs.Counters["por_slept_transitions"]; ok {
			t.Errorf("workers=%d pso: por_slept_transitions reported (%d); want no reducer", workers, n)
		}
		r = Explore(sp.Build, Options{Properties: props, Workers: workers, Symmetry: sp.Sym, Reduction: true})
		if n := r.Obs.Counters["por_slept_transitions"]; n != 0 {
			t.Errorf("workers=%d reduction+symmetry: %d edges slept; want none", workers, n)
		}
	}
}
