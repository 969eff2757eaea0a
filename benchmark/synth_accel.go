package main

import "repro/internal/synth"

// This file is everything there is to synth-accel: the corpus sweep of
// synth.go with the synthesis accelerators on, over the leading
// scenarios of synth-plain's corpus, its per-row verdicts held to a
// plain sweep of the same scenarios. ROADMAP item 4 judges the
// accelerators on this pair ("win wall-clock or be deleted"); retiring
// them retires this file, its entry in allWorkloads and its line in
// BENCHMARK.json.
func newSynthAccel() *synthWorkload {
	return &synthWorkload{workloadName: "synth-accel",
		scenarios:      func(sc scale) int { return sc.accelScenarios },
		opts:           synth.Options{Prefilter: true, ReorderBound: 2},
		plainReference: true}
}
