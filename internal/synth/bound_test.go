package synth_test

import (
	"fmt"
	"testing"

	"repro/internal/synth"
)

// TestVacuousBoundRunsNoScreen: a load waits behind at most
// StoreBufferDepth stores, so a reorder bound at or above the depth
// removes no interleaving, and Synthesize runs no screen for it. The run
// reports what the unscreened loop reports. The cases are corpus 7's
// first scenarios, generated at depth 2, and the registry's problems, at
// depth 4; on the corpus a bound of 1 binds and screens.
func TestVacuousBoundRunsNoScreen(t *testing.T) {
	type tcase struct {
		name string
		prob synth.Problem
	}
	var cases []tcase
	for i, c := range corpusScenarios(t, 7, 5) {
		prob, err := c.Problem()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if d := prob.Config.StoreBufferDepth; d != 2 {
			t.Fatalf("scenario %d: store-buffer depth %d, want the corpus's 2", i, d)
		}
		cases = append(cases, tcase{fmt.Sprintf("corpus-7/%d", i), prob})
	}
	for _, prob := range synth.Problems() {
		cases = append(cases, tcase{prob.Name, prob})
	}
	verdict := func(r *synth.Result) string {
		return fmt.Sprintf("unrepairable %v, optimal %v, minimal %v", r.Unrepairable, r.Optimal, r.Minimal)
	}
	synthesize := func(t *testing.T, prob synth.Problem, bound int) *synth.Result {
		t.Helper()
		res, err := synth.Synthesize(prob, synth.Options{Workers: 1, MaxStates: 200_000, ReorderBound: bound})
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		return res
	}
	screened := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			depth := c.prob.Config.StoreBufferDepth
			want := verdict(synthesize(t, c.prob, 0))
			for _, bound := range []int{depth, depth + 1} {
				res := synthesize(t, c.prob, bound)
				if res.BoundedChecks != 0 {
					t.Errorf("bound %d at depth %d ran %d screens, want none", bound, depth, res.BoundedChecks)
				}
				if got := verdict(res); got != want {
					t.Errorf("bound %d: %s\nbound 0: %s", bound, got, want)
				}
			}
			if depth == 2 {
				res := synthesize(t, c.prob, 1)
				if res.BoundedChecks == 0 {
					t.Errorf("bound 1 at depth 2 ran no screen")
				}
				if got := verdict(res); got != want {
					t.Errorf("bound 1: %s\nbound 0: %s", got, want)
				}
				screened += res.BoundedHits
			}
		})
	}
	if screened == 0 {
		t.Error("no bound-1 screen refuted a candidate on the corpus scenarios")
	}
}
