package harness

import (
	"repro/internal/stats"
	"repro/internal/synth"
)

// This file is the fence-synthesis counterpart of theorems.go: instead
// of model-checking hand-placed fences against the paper's claims, it
// asks internal/synth to *derive* the placements from the fence-free
// programs and the safety property, and reports what came back — the
// machine's own route to Fig. 3(a).

// SynthRow is one registry problem's synthesis outcome.
type SynthRow struct {
	Problem         string
	Sites           int
	Candidates      int
	Counterexamples int
	Rounds          int
	States          int
	Minimal         int
	Optimal         string
	Cost            float64
	Unrepairable    bool
	Err             error
}

// SynthesisResult is the aggregate synthesis report.
type SynthesisResult struct {
	Rows []SynthRow
}

// RunSynthesis synthesizes fences for every registry problem; the zero
// Options mean both fence kinds and the default primary weight.
func RunSynthesis(opts synth.Options) *SynthesisResult {
	res := &SynthesisResult{}
	for _, prob := range synth.Problems() {
		res.Rows = append(res.Rows, runOne(prob, opts))
	}
	return res
}

func runOne(prob synth.Problem, opts synth.Options) SynthRow {
	row := SynthRow{Problem: prob.Name}
	r, err := synth.Synthesize(prob, opts)
	if err != nil {
		row.Err = err
		return row
	}
	row.Sites = len(r.Sites)
	row.Candidates = r.CandidatesChecked
	row.Counterexamples = r.Counterexamples
	row.Rounds = r.Rounds
	row.States = r.StatesExplored
	row.Minimal = len(r.Minimal)
	row.Unrepairable = r.Unrepairable
	if r.Optimal != nil {
		row.Optimal = r.Optimal.Placement.String()
		row.Cost = r.Optimal.Cost
	}
	return row
}

// AllResolved reports whether every problem synthesized cleanly (a
// repair found, or a definite unrepairable verdict — no errors).
func (r *SynthesisResult) AllResolved() bool {
	for _, row := range r.Rows {
		if row.Err != nil {
			return false
		}
	}
	return true
}

// Table renders the synthesis report.
func (r *SynthesisResult) Table() *stats.Table {
	t := stats.NewTable(
		"Counterexample-guided fence synthesis over the protocol registry",
		"problem", "sites", "candidates", "cex", "rounds", "states", "minimal", "optimal placement", "cost")
	for _, row := range r.Rows {
		optimal := row.Optimal
		switch {
		case row.Err != nil:
			optimal = "ERROR: " + row.Err.Error()
		case row.Unrepairable:
			optimal = "UNREPAIRABLE"
		}
		t.AddRow(row.Problem, row.Sites, row.Candidates, row.Counterexamples,
			row.Rounds, row.States, row.Minimal, optimal, row.Cost)
	}
	t.AddNote("optimal = cheapest minimal repair under the frequency-weighted cycle model;")
	t.AddNote("the dekker row rediscovers Fig. 3(a): l-mfence on the primary, mfence on the secondary")
	return t
}
