package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
)

// experiments is the registry, in canonical -exp all order: adding an
// experiment is one row here plus its harness file. Names, Known, the
// lbmfbench -exp help and the golden key pin all derive from it.
var experiments = []experiment{
	entry("theorems", checker(harness.RunTheorems), emitTheorems),
	entry("litmus_por", checker(harness.RunPOR), emitPOR),
	entry("litmus_pso", checker(harness.RunPSO), emitPSO),
	entry("litmus_compress", checker(harness.RunCompress), emitCompress),
	entry("litmus_fuzz", scaled(harness.RunFuzz), emitFuzz),
	entry("litmus_resume", checker(harness.RunResume), emitResume),
	entry("synth_throughput", scaled(harness.RunSynthThroughput), emitSynthThroughput),
	entry("dekker", measured(harness.RunDekker), emitDekker),
	entry("overhead", measured(harness.RunOverhead), emitOverhead),
	entry("fig4", func(harness.Options, core.Mode) (*harness.Fig4Result, error) {
		return harness.Fig4(), nil
	}, emitFig4),
	entry("fig5a", variant(harness.RunFig5, false), emitFig5),
	entry("fig5b", variant(harness.RunFig5, true), emitFig5),
	entry("fig6a", variant(harness.RunFig6, false), emitFig6),
	entry("fig6b", variant(harness.RunFig6, true), emitFig6),
	entry("ablation", measured(harness.RunAblations), emitAblation),
	entry("packetproc", measured(harness.RunPacketProc), emitPacketProc),
	entry("chaos", measured(harness.RunChaos), emitChaos),
}

func emitTheorems(e *Experiment, res *harness.TheoremsResult) {
	var states int
	for _, row := range res.Rows {
		states += row.States
	}
	e.putMetric("states_total", float64(states), "states", true)
}

func emitPOR(e *Experiment, res *harness.PORResult) {
	for _, row := range res.Rows {
		k := metricKey(row.Name)
		// The guarded number: how much of the state space the
		// reduction prunes. A ratio drop means the ample/sleep rules
		// lost power.
		e.putMetric("ratio/"+k, row.Ratio, "ratio", true)
		e.putMetric("states_full/"+k, float64(row.StatesFull), "states", false)
		e.putMetric("states_reduced/"+k, float64(row.StatesReduced), "states", false)
	}
}

func emitPSO(e *Experiment, res *harness.PSOResult) {
	e.putMetric("states_per_sec", res.StatesPerSec(), "states/sec", true)
	for _, row := range res.Rows {
		k := metricKey(row.Name)
		// The guarded number: how much wider the PSO state space is.
		// A drop means the per-address drain classes stopped opening
		// reorderings; a jump means the encoding exploded.
		e.putMetric("ratio/"+k, row.Ratio, "ratio", true)
		e.putMetric("states_tso/"+k, float64(row.StatesTSO), "states", false)
		e.putMetric("states_pso/"+k, float64(row.StatesPSO), "states", false)
	}
}

func emitCompress(e *Experiment, res *harness.CompressResult) {
	for _, row := range res.Rows {
		k := metricKey(row.Name)
		// The guarded pair: how densely the collapsed visited set
		// stores orbits (drops mean the encoding bloated) and how much
		// memory the run peaked at (rises mean a footprint regression).
		e.putMetric("states_per_byte/"+k, row.StatesPerByte, "states/B", true)
		e.putMetric("peak_visited_bytes/"+k, row.PeakVisitedBytes, "B", false)
		// Orbit-merging payoff; bounded by the ring size.
		e.putMetric("sym_ratio/"+k, row.SymRatio, "ratio", true)
		e.putMetric("states_plain/"+k, float64(row.StatesPlain), "states", false)
		e.putMetric("states_sym/"+k, float64(row.StatesSym), "states", false)
	}
}

func emitFuzz(e *Experiment, res *harness.FuzzResult) {
	for _, row := range res.Rows {
		k := metricKey(row.Mix)
		// The guarded number: zero engine divergences across the
		// generated corpus. Any rise is a soundness bug somewhere in
		// the parallel/POR/collapse stack (or the DSL round trip).
		e.putMetric("divergences/"+k, float64(row.Divergences), "count", false)
		e.putMetric("programs/"+k, float64(row.Programs), "count", true)
		e.putMetric("skipped/"+k, float64(row.Skipped), "count", false)
		e.putMetric("programs_per_sec/"+k, row.ProgramsPerSec, "programs/s", true)
		e.putMetric("ref_states/"+k, float64(row.States), "states", false)
	}
}

func emitResume(e *Experiment, res *harness.ResumeResult) {
	for _, row := range res.Rows {
		k := metricKey(row.Name)
		// The guarded number: what periodic durable snapshots cost
		// relative to the plain exploration. A rise means the
		// checkpoint barrier or serialization path got slower.
		e.putMetric("overhead/"+k, row.Overhead, "x", false)
		e.putMetric("snapshots/"+k, float64(row.Writes), "count", false)
		e.putMetric("states/"+k, float64(row.States), "states", false)
	}
}

func emitSynthThroughput(e *Experiment, res *harness.SynthThroughputResult) {
	c := res.Corpus
	e.putMetric("scenarios", float64(res.Scenarios), "count", true)
	// The guarded numbers: end-to-end repairs per minute, exact
	// model-checks per resolved scenario, and the contract counter (a
	// spliced repair the exact engine refuted — must stay zero).
	e.putMetric("repairs_per_min", c.RepairsPerMinute(), "repairs/min", true)
	e.putMetric("exact_checks_per_repair", c.ExactChecksPerRepair(), "checks", false)
	e.putMetric("contract_failures", float64(c.ContractFailures), "count", false)
}

func emitDekker(e *Experiment, res *harness.DekkerResult) {
	for _, row := range res.Rows {
		k := metricKey(row.Variant)
		e.putMetric("sim_cycles_per_iter/"+k, row.CyclesPerIter, "cycles", false)
		e.putMetric("real_ns_per_iter/"+k, row.RealNsPerIter, "ns", false)
		e.putSample("real_run_sec/"+k, row.RealSample)
	}
}

func emitOverhead(e *Experiment, res *harness.OverheadResult) {
	e.putMetric("sim_lest_round_trip", res.SimLESTRoundTrip, "cycles", false)
	e.putMetric("sim_primary_iter_alone", res.SimUncontendedIter, "cycles", false)
	e.putMetric("sim_primary_iter_contended", res.SimPrimaryPerIter, "cycles", false)
	e.putMetric("real_sw_round_trip", res.RealSWRoundTripNs, "ns", false)
	e.putMetric("real_hw_round_trip", res.RealHWRoundTripNs, "ns", false)
}

func emitFig4(e *Experiment, res *harness.Fig4Result) {
	e.putMetric("benchmarks", float64(len(res.Rows)), "count", true)
}

func emitFig5(e *Experiment, res *harness.Fig5Result) {
	for _, row := range res.Rows {
		k := metricKey(row.Benchmark)
		// Relative runtime asym/sym: below 1 means ACilk-5 wins.
		e.putMetric("relative/"+k, row.Relative, "ratio", false)
		e.putSample("sym_sec/"+k, row.SymmetricSample)
		e.putSample("asym_sec/"+k, row.AsymmetricSample)
	}
}

func emitFig6(e *Experiment, res *harness.Fig6Result) {
	for _, c := range res.Cells {
		k := fmt.Sprintf("normalized/%d:1x%d", c.Ratio, c.Threads)
		e.putMetric(k, c.Normalized, "ratio", true)
	}
}

func emitAblation(e *Experiment, res *harness.AblationResult) {
	for d, v := range res.StoreBufferDepth {
		e.putMetric(fmt.Sprintf("store_buffer_cycles/%d", d), v, "cycles", false)
	}
	for c, v := range res.SignalCost {
		e.putMetric(fmt.Sprintf("signal_cost_normalized/%d", c), v, "ratio", true)
	}
	for b, v := range res.SpinBudget {
		e.putMetric(fmt.Sprintf("spin_budget_signals_per_write/%d", b), v, "signals/write", false)
	}
	for k, v := range res.PollInterval {
		e.putMetric(fmt.Sprintf("poll_interval_relative/%d", k), v, "ratio", false)
	}
	e.putMetric("double_flush_same", res.DoubleFlushSame, "cycles", false)
	e.putMetric("double_flush_different", res.DoubleFlushDifferent, "cycles", false)
	e.putMetric("double_flush_two_links", res.DoubleFlushTwoLinks, "cycles", false)
}

func emitPacketProc(e *Experiment, res *harness.PacketResult) {
	for _, row := range res.Rows {
		k := fmt.Sprintf("%d", row.LocalityPermille)
		e.putMetric("speedup_sw/"+k, row.SpeedupSW, "ratio", true)
		e.putMetric("speedup_hw/"+k, row.SpeedupHW, "ratio", true)
	}
}

func emitChaos(e *Experiment, res *harness.ChaosResult) {
	var violations, trips, abandons float64
	for _, row := range res.Rows {
		violations += float64(row.Violations)
		trips += float64(row.WatchdogTrips)
		abandons += float64(row.StealAbandons)
	}
	e.putMetric("violations_total", violations, "count", false)
	e.putMetric("watchdog_trips_total", trips, "count", false)
	e.putMetric("steal_abandons_total", abandons, "count", false)
	// The guarded number: primary poll cost with fault hooks
	// compiled in but disarmed.
	e.putMetric("poll_fastpath_ns", res.PollFastPathNs, "ns", false)
}
