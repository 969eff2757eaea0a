package synth_test

import (
	"testing"

	"repro/internal/arch"
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
// (the benchmark's synth-plain sweep). The worst case is pinned apart,
// as a fixture (TestMinimalHittingSetsWorstCase): which sets the sweep
// meets depends on the counterexamples the checker returns.
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
		}
		sets += len(cases)
	}
	t.Logf("%d scenarios, %d constraint sets: %d partial placements expanded, %d by the definition", n, sets, expanded, byDefinition)
}

// TestSpliceCacheMatchesFreshSplice: over corpus 7's first 50
// scenarios, every program a candidate was verified on equals a fresh
// tso.Splice of that candidate's edits for the thread, though the run
// splices far fewer programs than its candidates are made of.
func TestSpliceCacheMatchesFreshSplice(t *testing.T) {
	programs, splices := 0, 0
	for i, c := range corpusScenarios(t, 7, 50) {
		prob, err := c.Problem()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		n, d, err := synth.CheckSplices(prob, synth.Options{Workers: 1, MaxStates: 200_000})
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		programs, splices = programs+n, splices+d
	}
	if splices >= programs {
		t.Errorf("%d candidate programs took %d splices: nothing was reused", programs, splices)
	}
	t.Logf("%d candidate programs, %d splices", programs, splices)
}

// worstCaseSites is the final constraint set of corpus 7's scenario 165
// as plain CEGAR met it at commit c84c971, one row per constraint. Each
// site stands for its two atoms, the l-mfence and the mfence at that
// store, as every constraint of the set held both.
var worstCaseSites = [][][2]int{
	{{0, 9}, {0, 10}, {1, 0}, {1, 1}, {1, 3}, {1, 4}, {1, 6}},
	{{0, 10}, {1, 0}, {1, 1}, {1, 3}, {1, 4}, {1, 6}},
	{{0, 10}, {1, 1}, {1, 3}, {1, 4}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 1}, {1, 3}, {1, 4}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 3}, {1, 4}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 0}, {1, 1}, {1, 4}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 0}, {1, 1}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 0}, {1, 1}, {1, 3}, {1, 4}},
	{{0, 10}, {1, 3}, {1, 4}, {1, 6}},
	{{0, 10}, {1, 0}, {1, 1}, {1, 4}, {1, 6}},
	{{0, 10}, {1, 0}, {1, 1}, {1, 6}},
	{{0, 10}, {1, 0}, {1, 1}, {1, 3}, {1, 4}},
	{{0, 10}, {1, 1}, {1, 4}, {1, 6}},
	{{0, 10}, {1, 1}, {1, 6}},
	{{0, 10}, {1, 1}, {1, 3}, {1, 4}},
	{{0, 9}, {0, 10}, {1, 1}, {1, 4}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 1}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 1}, {1, 3}, {1, 4}},
	{{0, 9}, {0, 10}, {1, 4}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 6}},
	{{0, 9}, {0, 10}, {1, 3}, {1, 4}},
	{{0, 9}, {0, 10}, {1, 0}, {1, 1}, {1, 4}},
	{{0, 9}, {0, 10}, {1, 0}, {1, 1}},
	{{0, 10}, {1, 4}, {1, 6}},
	{{0, 10}, {1, 6}},
	{{0, 10}, {1, 3}, {1, 4}},
	{{0, 10}, {1, 0}, {1, 1}, {1, 4}},
	{{0, 10}, {1, 0}, {1, 1}},
	{{0, 10}, {1, 1}, {1, 4}},
	{{0, 10}, {1, 1}},
	{{0, 9}, {0, 10}, {1, 1}, {1, 4}},
	{{0, 9}, {0, 10}, {1, 1}},
	{{0, 9}, {0, 10}, {1, 4}},
	{{0, 9}, {0, 10}},
	{{0, 10}, {1, 4}},
	{{0, 10}},
}

// worstCaseAddr is each site's store address.
var worstCaseAddr = map[[2]int]arch.Addr{
	{0, 9}: 0, {0, 10}: 0, {1, 0}: 0,
	{1, 1}: 1, {1, 3}: 1, {1, 4}: 1, {1, 6}: 1,
}

// TestMinimalHittingSetsWorstCase pins the frontier's worst case: a
// constraint set the definition, which reaches a partial placement once
// per order of its atoms, expands more than ten times over. The frontier
// must match the definition on it and expand each placement once.
func TestMinimalHittingSetsWorstCase(t *testing.T) {
	var cons [][]synth.Atom
	for _, row := range worstCaseSites {
		var con []synth.Atom
		for _, s := range row {
			for _, k := range []synth.FenceKind{synth.KindLmfence, synth.KindMfence} {
				con = append(con, synth.Atom{Thread: s[0], Instr: s[1], Kind: k, Addr: worstCaseAddr[s], AddrKnown: true})
			}
		}
		cons = append(cons, con)
	}
	nodes, calls, distinct, err := synth.NewFrontierCase(cons, 0).Compare()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d constraints: %d partial placements expanded, %d by the definition", len(cons), nodes, calls)
	if nodes != distinct {
		t.Errorf("expanded %d partial placements, %d distinct ones exist", nodes, distinct)
	}
	if calls < 10*nodes {
		t.Errorf("the definition expands %d partial placements for %d distinct ones; the fixture is no longer a worst case", calls, nodes)
	}
}
