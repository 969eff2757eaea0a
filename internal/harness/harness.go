// Package harness drives the paper's experiments end to end: one driver
// per table or figure in the evaluation section (plus the introduction's
// Dekker-slowdown claim), each producing structured results and a
// paper-style text table. cmd/lbmfbench and the repository's benchmarks
// are thin wrappers around this package; EXPERIMENTS.md records the
// outputs next to the paper's numbers.
package harness

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Observed is embedded by every result that carries the obs snapshot of
// the subsystems its driver instrumented; internal/bench records it
// without knowing the concrete result type.
type Observed struct {
	Obs obs.Snapshot
}

// ObsSnapshot returns the aggregated snapshot.
func (o *Observed) ObsSnapshot() obs.Snapshot { return o.Obs }

// allPass reports whether pass holds for every row: the shared body of
// the results' AllPass methods.
func allPass[R any](rows []R, pass func(R) bool) bool {
	for _, row := range rows {
		if !pass(row) {
			return false
		}
	}
	return true
}

// Options configures experiment runs. The zero value is not useful; use
// Defaults or QuickDefaults.
type Options struct {
	// Reps is the number of repetitions per measurement (the paper takes
	// the mean of 10 runs).
	Reps int
	// Scale selects workload input sizes for the ACilk experiments.
	Scale workloads.Scale
	// Procs is the worker count for parallel ACilk runs (the paper uses
	// 16 cores).
	Procs int
	// ThreadCounts is the Fig. 6 sweep over lock-client threads.
	ThreadCounts []int
	// ReadWriteRatios is the Fig. 6 sweep (N:1 read-to-write ratios).
	ReadWriteRatios []int
	// CellDuration is how long each Fig. 6 throughput cell runs (the
	// paper runs each configuration for 10 seconds).
	CellDuration time.Duration
	// Cost is the modelled-cost calibration shared by all experiments.
	Cost core.CostProfile
	// DekkerIters is the loop count for the serial Dekker experiments.
	DekkerIters int
	// FaultSeeds are the deterministic fault-schedule seeds the chaos
	// experiment sweeps; each seed fully determines which hook points
	// fire (see internal/fault).
	FaultSeeds []uint64
}

// Defaults returns experiment options sized for a real measurement run
// (minutes, not hours — the paper-scale inputs remain available via
// Scale).
func Defaults() Options {
	procs := runtime.GOMAXPROCS(0) * 2
	if procs > 16 {
		procs = 16
	}
	return Options{
		Reps:            5,
		Scale:           workloads.ScaleSmall,
		Procs:           procs,
		ThreadCounts:    []int{1, 2, 4, 8, 16},
		ReadWriteRatios: []int{300, 500, 1000, 10000, 100000},
		CellDuration:    300 * time.Millisecond,
		Cost:            core.DefaultCosts(),
		DekkerIters:     200_000,
		FaultSeeds:      []uint64{1, 2, 3},
	}
}

// QuickDefaults returns options small enough for unit tests (seconds in
// total).
func QuickDefaults() Options {
	return Options{
		Reps:            2,
		Scale:           workloads.ScaleTest,
		Procs:           3,
		ThreadCounts:    []int{1, 2},
		ReadWriteRatios: []int{300, 10000},
		CellDuration:    30 * time.Millisecond,
		Cost:            core.DefaultCosts(),
		DekkerIters:     20_000,
		FaultSeeds:      []uint64{1, 2, 3},
	}
}
