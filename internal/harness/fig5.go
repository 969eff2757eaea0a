package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig5Row is one benchmark's ACilk-5 / Cilk-5 comparison.
type Fig5Row struct {
	Benchmark string
	// SymmetricSec and AsymmetricSec are mean wall-clock seconds for the
	// Cilk-5 (program-based fence) and ACilk-5 (location-based fence)
	// runtimes.
	SymmetricSec  float64
	AsymmetricSec float64
	// Relative is asymmetric/symmetric: the bar height in Fig. 5
	// (below 1 means ACilk-5 is faster).
	Relative float64
	// RelStdDev is the worst coefficient of variation across the two
	// measurements (the paper reports <3%).
	RelStdDev float64
	// SymmetricSample and AsymmetricSample are the full repeated-
	// measurement summaries behind the two means, for the bench pipeline.
	SymmetricSample  stats.Sample
	AsymmetricSample stats.Sample
	// Steal accounting for the parallel experiment (Fig. 5(b) analysis):
	// signals sent by thieves and the fraction that returned a task.
	Signals          uint64
	SuccessfulSteals uint64
	StealSuccess     float64
	// FencesAvoided is the symmetric run's fence count: every one of
	// them is avoided on the asymmetric victim's fast path.
	FencesAvoided uint64
}

// Fig5Result holds one of the two Fig. 5 panels.
type Fig5Result struct {
	Parallel bool
	Procs    int
	AsymMode core.Mode
	Rows     []Fig5Row
	// Obs aggregates the asymmetric runtimes' scheduler counters over
	// every benchmark and repetition (symmetric runs are excluded so the
	// counters describe one fence discipline, not a mix).
	Observed
}

// RunFig5 reproduces Fig. 5(a) (serial, procs=1) or Fig. 5(b)
// (parallel) for all twelve benchmarks: relative execution time of the
// asymmetric runtime versus the symmetric baseline. asymMode selects the
// software-prototype (ModeAsymmetricSW, as in the paper) or the
// projected-hardware (ModeAsymmetricHW) cost profile.
func RunFig5(opt Options, parallel bool, asymMode core.Mode) (*Fig5Result, error) {
	if !asymMode.Asymmetric() {
		return nil, fmt.Errorf("harness: fig5 needs an asymmetric mode, got %v", asymMode)
	}
	procs := 1
	if parallel {
		procs = opt.Procs
	}
	res := &Fig5Result{Parallel: parallel, Procs: procs, AsymMode: asymMode}

	for _, spec := range workloads.All() {
		row := Fig5Row{Benchmark: spec.Name}

		run := func(mode core.Mode) (stats.Sample, sched.WorkerStats, error) {
			var last sched.WorkerStats
			secs := make([]float64, 0, opt.Reps)
			for r := 0; r < opt.Reps; r++ {
				inst := spec.Make(opt.Scale)
				rt := sched.New(procs, mode, opt.Cost)
				s := stats.MeasureSeconds(1, func() { rt.Run(inst.Root) })
				if err := inst.Verify(); err != nil {
					return stats.Sample{}, last, fmt.Errorf("%s (%v): %w", spec.Name, mode, err)
				}
				secs = append(secs, s[0])
				last = rt.Stats()
				if mode == asymMode {
					res.Obs.Merge(rt.ObsSnapshot())
				}
			}
			return stats.Summarize(secs), last, nil
		}

		symS, symStats, err := run(core.ModeSymmetric)
		if err != nil {
			return nil, err
		}
		asymS, asymStats, err := run(asymMode)
		if err != nil {
			return nil, err
		}

		row.SymmetricSec = symS.Mean
		row.AsymmetricSec = asymS.Mean
		row.SymmetricSample = symS
		row.AsymmetricSample = asymS
		row.Relative = asymS.Mean / symS.Mean
		row.RelStdDev = symS.RelStdDev()
		if r := asymS.RelStdDev(); r > row.RelStdDev {
			row.RelStdDev = r
		}
		row.Signals = asymStats.Signals
		row.SuccessfulSteals = asymStats.Steals
		if asymStats.Signals > 0 {
			row.StealSuccess = float64(asymStats.Steals) / float64(asymStats.Signals)
		}
		row.FencesAvoided = symStats.Fences
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the panel like Fig. 5: one bar (ratio) per benchmark.
func (r *Fig5Result) Table() *stats.Table {
	title := fmt.Sprintf("Fig. 5(a): relative serial execution time, ACilk-5 (%v) / Cilk-5", r.AsymMode)
	cols := []string{"benchmark", "cilk-5 (s)", "acilk-5 (s)", "relative", "fences avoided"}
	if r.Parallel {
		title = fmt.Sprintf("Fig. 5(b): relative execution time on %d workers, ACilk-5 (%v) / Cilk-5", r.Procs, r.AsymMode)
		cols = append(cols, "signals", "steal success")
	}
	t := stats.NewTable(title, cols...)
	for _, row := range r.Rows {
		cells := []any{row.Benchmark, row.SymmetricSec, row.AsymmetricSec, row.Relative, row.FencesAvoided}
		if r.Parallel {
			cells = append(cells, row.Signals, row.StealSuccess)
		}
		t.AddRow(cells...)
	}
	t.AddNote("relative < 1: the asymmetric runtime is faster (paper: all 12 below 1 serially;")
	t.AddNote("parallel: most at or below 1, cholesky/heat/lu above 1 under the software prototype)")
	return t
}
