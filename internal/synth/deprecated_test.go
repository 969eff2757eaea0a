package synth_test

import (
	"fmt"
	"testing"

	"repro/internal/synth"
)

// TestVacuousBoundRunsNoScreen: Options.ReorderBound is deprecated and
// ignored, so no bound, binding or vacuous, changes what Synthesize
// reports. A load waits behind at most StoreBufferDepth stores, so a
// bound at or above the depth once removed no interleaving, and a bound
// of 1 on the depth-2 corpus once bound. Every one of them must now run
// the plain loop: the same verdict, the same candidates checked, the
// same states. The cases are corpus 7's first scenarios, generated at
// depth 2, and the registry's problems, at depth 4.
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
	work := func(r *synth.Result) string {
		return fmt.Sprintf("candidates %d, counterexamples %d, rounds %d, states %d",
			r.CandidatesChecked, r.Counterexamples, r.Rounds, r.StatesExplored)
	}
	synthesize := func(t *testing.T, prob synth.Problem, bound int) *synth.Result {
		t.Helper()
		res, err := synth.Synthesize(prob, synth.Options{Workers: 1, MaxStates: 200_000, ReorderBound: bound})
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		return res
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			depth := c.prob.Config.StoreBufferDepth
			plain := synthesize(t, c.prob, 0)
			bounds := []int{depth, depth + 1}
			if depth == 2 {
				bounds = append(bounds, 1)
			}
			for _, bound := range bounds {
				res := synthesize(t, c.prob, bound)
				if got, want := verdict(res), verdict(plain); got != want {
					t.Errorf("bound %d: %s\nbound 0: %s", bound, got, want)
				}
				if got, want := work(res), work(plain); got != want {
					t.Errorf("bound %d: %s\nbound 0: %s", bound, got, want)
				}
			}
		})
	}
}
