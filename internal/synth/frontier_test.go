package synth_test

import (
	"testing"

	"repro/internal/litmusgen"
	"repro/internal/litmuslang"
	"repro/internal/synth"
)

// corpusScenarios scans generator seeds upward from seed for n compiled
// scenarios that declare a property, as harness.RunCorpus does.
func corpusScenarios(t *testing.T, seed int64, n int) []*litmuslang.Compiled {
	var out []*litmuslang.Compiled
	for ; len(out) < n; seed++ {
		c, err := litmuslang.CompileSource(litmusgen.Generate(seed, litmusgen.CorpusParams()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.HasProperty() {
			out = append(out, c)
		}
	}
	return out
}

// TestMinimalHittingSetsMatchesDefinitionCorpus holds the frontier to
// its definition on every constraint set plain CEGAR meets on corpus 7
// (the benchmark's synth-plain sweep), and pins the worst case: the
// final constraint set of scenario 165, which the definition expands
// more than ten times over.
func TestMinimalHittingSetsMatchesDefinitionCorpus(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	sets, expanded, byDefinition := 0, 0, 0
	for i, c := range corpusScenarios(t, 7, n) {
		prob, err := c.Problem()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		cases := synth.CaptureFrontiers(func() {
			_, err = synth.Synthesize(prob, synth.Options{Workers: 1, MaxStates: 200_000})
		})
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		for k, fc := range cases {
			nodes, calls, distinct, err := fc.Compare()
			if err != nil {
				t.Fatalf("scenario %d, round %d: %v", i, k, err)
			}
			expanded += nodes
			byDefinition += calls
			if nodes != distinct {
				t.Errorf("scenario %d, round %d: expanded %d partial placements, %d distinct ones exist", i, k, nodes, distinct)
			}
			if i == 165 && k == len(cases)-1 {
				t.Logf("scenario 165, final set: %d partial placements expanded, %d by the definition", nodes, calls)
				if calls < 10*nodes {
					t.Errorf("scenario 165: the definition expands %d partial placements for %d distinct ones; the pinned worst case has gone", calls, nodes)
				}
			}
		}
		sets += len(cases)
	}
	t.Logf("%d scenarios, %d constraint sets: %d partial placements expanded, %d by the definition", n, sets, expanded, byDefinition)
}
