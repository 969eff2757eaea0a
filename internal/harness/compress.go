package harness

import (
	"fmt"

	"repro/internal/litmus"
	"repro/internal/programs"
	"repro/internal/stats"
)

// CompressRow is one protocol instance's scaling comparison: the plain
// engine (exact hashed visited set, no canonicalization) against the
// representation-level run — collapse-compressed fingerprints plus
// symmetry canonicalization. Both runs must agree on the verdict and
// deadlock count; the symmetric run counts orbits, so state counts are
// compared as a reduction ratio rather than for equality.
type CompressRow struct {
	Name string
	// StatesPlain / StatesSym are reachable states vs reachable orbits.
	StatesPlain int
	StatesSym   int
	// SymRatio is StatesPlain/StatesSym: the orbit-merging payoff,
	// bounded by the ring size n (cyclic symmetry; see tso/symmetry.go).
	SymRatio float64
	// PeakVisitedBytes / StatesPerByte gauge the collapsed visited set's
	// footprint: total resident+table bytes at peak, and orbits stored
	// per byte of it.
	PeakVisitedBytes float64
	StatesPerByte    float64
	// Agree is the preservation check: same violation verdict and same
	// deadlock count as the plain run.
	Agree bool
	Pass  bool
}

// CompressResult is the litmus_compress benchmark: what the collapse
// compression and symmetry reduction buy on the N-process protocol
// generators, with the soundness contract checked on every row.
type CompressResult struct {
	Rows []CompressRow
	// Obs aggregates the compressed runs' engine gauges (collapse table
	// sizes, visited residency, spill counters, symmetry flags).
	Observed
}

// RunCompress measures collapse compression plus symmetry
// canonicalization on the N-process bakery and Peterson generators.
// workers sizes both runs' exploration pools (0 = GOMAXPROCS). Both
// runs explore the full interleaving space, unreduced: symmetry must
// disable sleep sets (DESIGN.md — their sibling-coverage argument
// breaks on the quotient graph), so a reduced-vs-reduced comparison
// would conflate the orbit-merging payoff with the sleep-set loss;
// unreduced on both sides, orbits ≤ states is a theorem and the ratio
// isolates what symmetry buys. The 3-process rows shallow the store
// buffers to depth 2 to keep the unreduced spaces bench-sized.
func RunCompress(workers int) *CompressResult {
	res := &CompressResult{}
	add := func(sp *programs.SymProtocol) {
		plain := litmus.Explore(sp.Build, litmus.Options{
			Properties: []litmus.Property{litmus.MutualExclusion},
			Workers:    workers,
		})
		comp := litmus.Explore(sp.Build, litmus.Options{
			Properties: []litmus.Property{litmus.MutualExclusion},
			Workers:    workers,
			Collapse:   true,
			Symmetry:   sp.Sym,
		})
		row := CompressRow{
			Name:             sp.Name,
			StatesPlain:      plain.States,
			StatesSym:        comp.States,
			PeakVisitedBytes: comp.Obs.Gauges["peak_visited_bytes"],
			StatesPerByte:    comp.Obs.Gauges["states_per_byte"],
		}
		if comp.States > 0 {
			row.SymRatio = float64(plain.States) / float64(comp.States)
		}
		row.Agree = (plain.Violations > 0) == (comp.Violations > 0) &&
			plain.Deadlocks == comp.Deadlocks
		row.Pass = row.Agree && comp.States <= plain.States &&
			row.StatesPerByte > 0 && !plain.Truncated && !comp.Truncated
		res.Obs.Merge(comp.Obs)
		res.Rows = append(res.Rows, row)
	}

	for _, v := range []programs.DekkerVariant{programs.DekkerNoFence, programs.DekkerMfence} {
		add(programs.BakeryN(2, v))
		add(programs.PetersonN(2, v))
	}
	for _, gen := range []func(int, programs.DekkerVariant) *programs.SymProtocol{
		programs.BakeryN, programs.PetersonN,
	} {
		sp := gen(3, programs.DekkerMfence)
		sp.Cfg.StoreBufferDepth = 2
		add(sp)
	}

	return res
}

// AllPass reports whether every compressed run preserved its plain
// run's semantics.
func (r *CompressResult) AllPass() bool {
	return allPass(r.Rows, func(row CompressRow) bool { return row.Pass })
}

// Table renders the compression report.
func (r *CompressResult) Table() *stats.Table {
	t := stats.NewTable(
		"Collapse compression + symmetry reduction over the N-process generators",
		"workload", "states (plain)", "orbits (sym)", "sym ratio", "peak visited", "states/byte", "verdict")
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL"
			if !row.Agree {
				verdict = "FAIL: verdict divergence"
			}
		}
		t.AddRow(row.Name, row.StatesPlain, row.StatesSym,
			fmt.Sprintf("%.2fx", row.SymRatio),
			fmt.Sprintf("%.0fB", row.PeakVisitedBytes),
			fmt.Sprintf("%.3f", row.StatesPerByte), verdict)
	}
	t.AddNote("plain = hashed exact visited set; sym = collapse-compressed fingerprints")
	t.AddNote("with cyclic-symmetry canonicalization (ratio bounded by the ring size)")
	return t
}
