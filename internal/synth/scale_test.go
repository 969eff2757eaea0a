package synth

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/tso"
)

// newTestSynthesizer builds a bare synthesizer for exercising internal
// passes (minimality) without running the CEGAR loop.
func newTestSynthesizer(t *testing.T, name string) *synthesizer {
	t.Helper()
	return newSynthesizer(mustProblem(t, name), testOptions())
}

// TestVerifyMinimalityFixpoint is the regression pin for the one-level
// minimality bug: on a problem that is already safe, a placement with
// TWO removable atoms must reduce all the way to the empty placement.
// The historical pass stopped after one weakening level, so it would
// report the two half-weakened single-fence children as "minimal"
// without ever checking that their own weakenings (the empty placement)
// also verify safe.
func TestVerifyMinimalityFixpoint(t *testing.T) {
	s := newTestSynthesizer(t, "mp") // already safe: every weakening verifies
	if len(s.sites) < 2 {
		t.Fatalf("mp exposes %d sites, need 2", len(s.sites))
	}
	var p Placement
	for _, site := range s.sites[:2] {
		p = p.with(Atom{
			Thread: site.Thread, Instr: site.Instr, Kind: KindMfence,
			Addr: site.Addr, AddrKnown: site.AddrKnown,
		})
	}

	got := s.verifyMinimality([]Placement{p})
	if len(got) != 1 || got[0].Len() != 0 {
		t.Fatalf("verifyMinimality(%v) = %v, want the empty placement alone", p, got)
	}
	// The two singles plus the empty placement: each model-checked once.
	if s.res.CandidatesChecked != 3 {
		t.Errorf("CandidatesChecked = %d, want 3", s.res.CandidatesChecked)
	}
	// No counterexample-derived constraint exists, so stripping
	// over-fencing is cleanup, not a monotonicity failure.
	if s.res.AssumptionViolated {
		t.Error("AssumptionViolated flagged with no counterexample constraints")
	}
}

// TestAcceleratedMatchesVanilla: the deprecated accelerator options
// (Prefilter, ReorderBound) are ignored, so a run that sets them reports
// the same verdict, minimal frontier and optimal placement as a run that
// does not.
func TestAcceleratedMatchesVanilla(t *testing.T) {
	for _, prob := range Problems() {
		prob := prob
		t.Run(prob.Name, func(t *testing.T) {
			van, err := Synthesize(prob, testOptions())
			if err != nil {
				t.Fatalf("vanilla: %v", err)
			}
			opts := testOptions()
			opts.Prefilter = true
			opts.ReorderBound = 2
			acc, err := Synthesize(prob, opts)
			if err != nil {
				t.Fatalf("accelerated: %v", err)
			}

			if acc.Unrepairable != van.Unrepairable || acc.AssumptionViolated {
				t.Fatalf("verdict drift: unrepairable %v vs %v, assumption violated %v",
					acc.Unrepairable, van.Unrepairable, acc.AssumptionViolated)
			}
			wantKeys := make(map[string]float64, len(van.Minimal))
			for _, c := range van.Minimal {
				wantKeys[c.Placement.key()] = c.Cost
			}
			if len(acc.Minimal) != len(van.Minimal) {
				t.Fatalf("minimal frontier: %d placements vs vanilla %d\naccelerated %v\nvanilla %v",
					len(acc.Minimal), len(van.Minimal), acc.Minimal, van.Minimal)
			}
			for _, c := range acc.Minimal {
				cost, ok := wantKeys[c.Placement.key()]
				if !ok {
					t.Errorf("placement %v not in the vanilla frontier", c.Placement)
				} else if cost != c.Cost {
					t.Errorf("placement %v cost %v, vanilla %v", c.Placement, c.Cost, cost)
				}
			}
			if acc.Optimal.Placement.key() != van.Optimal.Placement.key() ||
				acc.Optimal.Cost != van.Optimal.Cost {
				t.Errorf("optimal drift: %v (%v) vs vanilla %v (%v)",
					acc.Optimal.Placement, acc.Optimal.Cost, van.Optimal.Placement, van.Optimal.Cost)
			}
			if acc.CandidatesChecked == 0 || acc.StatesExplored == 0 {
				t.Errorf("checked %d candidates over %d states, want exact checks",
					acc.CandidatesChecked, acc.StatesExplored)
			}
		})
	}
}

// TestUnrepairableConcludedExactly: a problem whose property fails in
// every final state (no fence can help) is reported Unrepairable, with a
// counterexample trace, off exact checks, also when the run sets the
// deprecated ReorderBound.
func TestUnrepairableConcludedExactly(t *testing.T) {
	prob := Problem{
		Name:     "always-fails",
		Programs: litmus.CatalogEntry("SB").Build(),
		Config:   ProblemConfig(),
		Property: ForbiddenQuiesced("any final state", func(m *tso.Machine) bool { return true }),
	}
	opts := testOptions()
	opts.ReorderBound = 1
	res, err := Synthesize(prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unrepairable {
		t.Fatal("want Unrepairable")
	}
	if res.Counterexample == "" {
		t.Error("Unrepairable reported without a counterexample trace")
	}
	if res.Counterexamples == 0 {
		t.Error("Unrepairable concluded without a counterexample")
	}
	if res.CandidatesChecked == 0 || res.StatesExplored == 0 {
		t.Error("Unrepairable concluded without any exact verification")
	}
}
