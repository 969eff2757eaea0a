package harness

import (
	"fmt"
	"reflect"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/programs"
	"repro/internal/stats"
	"repro/internal/tso"
)

// PORRow is one workload's reduced-vs-unreduced comparison: the
// unreduced serial exploration is the reference semantics, the reduced
// run (serial or parallel) must agree with it on everything the
// preservation contract promises — the exact outcome multiset, the
// exact deadlock count, and the violation verdict — while visiting
// fewer states.
type PORRow struct {
	Name          string
	StatesFull    int
	StatesReduced int
	// Ratio is StatesFull/StatesReduced: >1 means the reduction pruned.
	Ratio float64
	// Agree is the preservation check: same Outcomes, same Deadlocks,
	// same violation verdict as the unreduced reference.
	Agree bool
	Pass  bool
}

// PORResult is the partial-order-reduction benchmark: how much of the
// interleaving space the sleep-set reduction prunes on the classic
// mutual-exclusion protocols, with the preservation contract checked on
// every row.
type PORResult struct {
	Rows []PORRow
	// Obs aggregates the reduced runs' engine counters (ample states,
	// slept transitions, re-expansions, visited-set statistics).
	Observed
}

// RunPOR measures the partial-order reduction on the workloads the
// paper's protocols induce: store buffering plus the Dekker, Peterson,
// and bakery mutual-exclusion protocols. workers sizes the reduced
// run's exploration pool (0 = GOMAXPROCS); the unreduced reference is
// always the serial engine, which Options.Reduction leaves untouched.
func RunPOR(workers int) *PORResult {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4

	res := &PORResult{}
	add := func(name string, p0, p1 *tso.Program, props []litmus.Property) {
		build := func() *tso.Machine { return tso.NewMachine(cfg, p0, p1) }
		full := litmus.ExploreSerial(build, litmus.Options{Properties: props})
		red := litmus.Explore(build, litmus.Options{
			Properties: props,
			Workers:    workers,
			Reduction:  true,
		})
		row := PORRow{
			Name:          name,
			StatesFull:    full.States,
			StatesReduced: red.States,
		}
		if red.States > 0 {
			row.Ratio = float64(full.States) / float64(red.States)
		}
		row.Agree = reflect.DeepEqual(full.Outcomes, red.Outcomes) &&
			full.Deadlocks == red.Deadlocks &&
			(full.Violations > 0) == (red.Violations > 0)
		row.Pass = row.Agree && red.States <= full.States
		res.Obs.Merge(red.Obs)
		res.Rows = append(res.Rows, row)
	}

	mutex := []litmus.Property{litmus.MutualExclusion}

	sb := litmus.CatalogEntry("SB").Build()
	add("sb", sb[0], sb[1], nil)
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	add("dekker-nofence", p0, p1, mutex)
	p0, p1 = programs.DekkerPair(programs.DekkerLmfence)
	add("dekker-lmfence", p0, p1, mutex)
	p0, p1 = programs.PetersonPair(programs.DekkerNoFence)
	add("peterson-nofence", p0, p1, mutex)
	p0, p1 = programs.BakeryPair(programs.DekkerNoFence)
	add("bakery-nofence", p0, p1, mutex)

	return res
}

// AllPass reports whether every reduced run agreed with its unreduced
// reference.
func (r *PORResult) AllPass() bool {
	return allPass(r.Rows, func(row PORRow) bool { return row.Pass })
}

// Table renders the reduction report.
func (r *PORResult) Table() *stats.Table {
	t := stats.NewTable(
		"Partial-order reduction: sleep sets + ample sets over the protocol suite",
		"workload", "states (full)", "states (reduced)", "ratio", "verdict")
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL"
			if !row.Agree {
				verdict = "FAIL: outcome divergence"
			}
		}
		t.AddRow(row.Name, row.StatesFull, row.StatesReduced,
			fmt.Sprintf("%.2fx", row.Ratio), verdict)
	}
	t.AddNote("reference semantics: unreduced serial exploration; reduced runs must")
	t.AddNote("reproduce its exact outcome multiset, deadlocks, and violation verdict")
	return t
}
