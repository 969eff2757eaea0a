package litmus

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// withProtocol rebuilds the machines build returns under proto.
func withProtocol(build func() *tso.Machine, proto arch.Protocol) func() *tso.Machine {
	root := build()
	cfg := root.Cfg
	cfg.Protocol = proto
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
func TestSleepSetsKeepEveryState(t *testing.T) {
	type leg struct {
		name  string
		proto arch.Protocol
		sc    bool
	}
	legs := []leg{{"msi", arch.MSI, false}, {"moesi", arch.MOESI, false}, {"sc", arch.MESI, true}}
	var slept, reexp uint64
	for _, sp := range reductionSpaces() {
		for _, l := range legs {
			build := withProtocol(sp.build, l.proto)
			opts := Options{Properties: sp.props, SequentialConsistency: l.sc}
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
}

// TestSleepSetsEngaged holds where resolve runs sleep sets alone: an
// unreduced TSO bakery sleeps edges, so the gain cannot silently switch
// off, while Symmetry (it forces every sleep mask empty) and PSO (its
// drains are not what the footprints model) get no reducer at all.
func TestSleepSetsEngaged(t *testing.T) {
	sp := programs.BakeryN(2, programs.DekkerMfence)
	props := []Property{MutualExclusion}
	ref := ExploreSerial(sp.Build, Options{Properties: props})
	if _, ok := ref.Obs.Counters["por_slept_transitions"]; ok {
		t.Error("ExploreSerial ran sleep sets; it must stay the unreduced reference")
	}
	for _, workers := range []int{1, 2} {
		r := Explore(sp.Build, Options{Properties: props, Workers: workers})
		if n := r.Obs.Counters["por_slept_transitions"]; n == 0 {
			t.Errorf("workers=%d: por_slept_transitions = 0 on %s; want > 0", workers, sp.Name)
		}
		if r.States != ref.States || r.Transitions != ref.Transitions {
			t.Errorf("workers=%d: %d states %d transitions, reference %d %d",
				workers, r.States, r.Transitions, ref.States, ref.Transitions)
		}
		for name, opts := range map[string]Options{
			"symmetry": {Properties: props, Workers: workers, Symmetry: sp.Sym},
			"pso":      {Properties: props, Workers: workers, Model: arch.PSO},
		} {
			r := Explore(sp.Build, opts)
			if n, ok := r.Obs.Counters["por_slept_transitions"]; ok {
				t.Errorf("workers=%d %s: por_slept_transitions reported (%d); want no reducer", workers, name, n)
			}
		}
	}
}
