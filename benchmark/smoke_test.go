package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
)

// layerMetricsOf lists, per workload, the per-layer metrics its traced
// run must emit (README.md's layer -> metric table). Everything else
// the workload reports as 0.
var layerMetricsOf = map[string][]string{
	"explore": {
		"trace.overhead_share",
		"litmus.states", "litmus.transitions", "litmus.transitions_per_state", "litmus.states_per_sec",
		"litmus.states_per_sec_w1", "litmus.parallel_efficiency", "litmus.cpu_ns_per_state",
		"litmus.engine_residual_ns_per_state", "litmus.property_ns", "litmus.visited_hit_rate",
		"litmus.mallocs_per_state", "litmus.peak_heap_mb", "litmus.gc_cycles",
		"tso.enabled_ns", "tso.exec_step_ns", "tso.drain_step_ns", "tso.copy_from_ns", "tso.fingerprint_ns",
		"tso.fingerprint_bytes", "tso.collapse_ns", "tso.collapse_table_entries", "tso.canonicalize_ns",
		"tso.new_machine_us", "mesi.copy_from_ns", "mesi.fingerprint_ns", "storebuf.copy_from_ns", "storebuf.fingerprint_ns",
	},
	"explore-plain":    {"litmus.collapse_overhead_share"},
	"explore-quotient": {"litmus.peak_visited_bytes", "litmus.states_per_byte", "litmus.collapse_table_bytes"},
	"synth": {
		"trace.overhead_share", "harness.repairs_per_min", "harness.pool_efficiency",
		"litmus.states", "litmus.states_per_sec", "litmus.explore_startup_us", "litmusgen.generate_us_per_scenario",
		"synth.exact_checks_per_repair", "synth.bounded_checks_per_repair", "synth.screen_hit_rate",
		"synth.states_per_repair", "synth.reverify_state_share", "synth.pruned_sites", "synth.restored_sites",
		"synth.explorations_per_sec", "synth.synthesize_ms_p50", "synth.synthesize_ms_p95",
		"tso.new_machine_us", "tso.splice_us",
	},
	"daemon-batch": {
		"trace.overhead_share", "litmusd.jobs_per_sec", "litmusd.job_service_ms_p50", "litmusd.job_service_ms_p90",
		"litmusd.first_verdict_ms", "litmusd.non_explore_share",
		"litmus.states", "litmus.transitions", "litmus.transitions_per_state", "litmus.states_per_sec",
		"litmus.explore_startup_us", "litmus.checkpoint_commit_ms", "litmus.checkpoint_overhead_share",
		"litmuslang.parse_us_per_file", "litmuslang.compile_us_per_file", "litmusgen.generate_us_per_scenario",
	},
}

func expectedLayerMetrics(workload string) []string {
	var names []string
	switch workload {
	case "explore-plain", "explore-quotient", "explore-por":
		names = append(names, layerMetricsOf["explore"]...)
	case "synth-plain", "synth-accel":
		names = append(names, layerMetricsOf["synth"]...)
	}
	return append(names, layerMetricsOf[workload]...)
}

// checkTrace asserts the trace file parses and is a tree: every span's
// parent is an earlier span or the root marker, and no span ends before
// it starts.
func checkTrace(t *testing.T, root, workload string) {
	t.Helper()
	data, err := os.ReadFile(root + "/benchmark/out/trace-" + workload + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace-%s.json: %v", workload, err)
	}
	if len(spans) == 0 {
		t.Fatalf("trace-%s.json holds no spans", workload)
	}
	for i, s := range spans {
		if s.ID != i || s.Workload != workload || s.Name == "" {
			t.Errorf("span %d: id %d, workload %q, name %q", i, s.ID, s.Workload, s.Name)
		}
		if s.Parent < -1 || s.Parent >= i {
			t.Errorf("span %d (%s): parent %d does not exist before it", i, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s): ends before it starts", i, s.Name)
		}
	}
}

// TestSmoke runs all six workloads at smoke scale, untraced and traced,
// and asserts only what repeats exactly: names, units, pins, failure
// counts and the trace's shape. No wall-clock value is compared.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < workers {
		t.Skipf("needs %d CPUs", workers)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, spec, scales["smoke"], defaultSeed, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer runCleanups()

	if len(spec.Workloads) != len(allWorkloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(spec.Workloads), len(allWorkloads()))
	}
	units := map[string]string{"verdict_s": "s", "alloc_bytes_per_state": "B", "setup_s": "s"}
	for _, d := range spec.EndToEnd {
		if units[d.Name] != d.Unit {
			t.Errorf("end-to-end metric %s has unit %q, want %q", d.Name, d.Unit, units[d.Name])
		}
		delete(units, d.Name)
	}
	if len(units) != 0 {
		t.Errorf("BENCHMARK.json lacks end-to-end metrics %v", units)
	}

	emitted := make(map[string]bool)
	for i, w := range allWorkloads() {
		if spec.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, spec.Workloads[i].Name, w.name())
		}
		// A run this short holds one rep (two when traced).
		res, err := runWorkload(e, w, 0.01, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", w.name(), res.failed, res.attempted)
		}
		for _, d := range spec.EndToEnd {
			if v, ok := res.metrics.values[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (reported: %v)", w.name(), d.Name, v, ok)
			}
		}
		obj := res.object()
		if len(obj) != 4 || len(obj["metrics"].(map[string]any)) != len(spec.EndToEnd) {
			t.Errorf("%s: result object %v", w.name(), obj)
		}

		res, err = runWorkload(e, w, 0.01, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name(), err)
		}
		if res.failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed", w.name(), res.failed, res.attempted)
		}
		want := expectedLayerMetrics(w.name())
		sort.Strings(want)
		var got []string
		for name := range res.metrics.values {
			got = append(got, name)
			emitted[name] = true
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Errorf("%s: per-layer metrics\n got  %v\n want %v", w.name(), got, want)
		} else {
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("%s: per-layer metric %q, want %q", w.name(), got[j], want[j])
				}
			}
		}
		if len(res.object()["metrics"].(map[string]any)) != len(spec.PerLayer) {
			t.Errorf("%s: traced result object does not carry every per-layer metric", w.name())
		}
		checkTrace(t, root, w.name())
	}
	for _, d := range spec.PerLayer {
		if !emitted[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload emits it", d.Name)
		}
	}
}

// TestPinsAreHonoured: a verdict that differs from golden.json is a
// failed operation, not a dropped sample.
func TestPinsAreHonoured(t *testing.T) {
	if runtime.NumCPU() < workers {
		t.Skipf("needs %d CPUs", workers)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, spec, scales["smoke"], defaultSeed, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer runCleanups()

	pins := e.pins()
	pin := pins.Explore["explore-plain"]
	pin.States++
	pins.Explore["explore-plain"] = pin
	pins.CorpusRows[0] = "7 fences, cost 1"
	for _, w := range []workload{newExplorePlain(), newSynthPlain()} {
		res, err := runWorkload(e, w, 0.01, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != res.reps || res.object()["correct"] != false {
			t.Errorf("%s with a wrong pin: %d failed over %d reps", w.name(), res.failed, res.reps)
		}
	}

	// Another corpus has no pins; synth-accel is held to the plain sweep
	// of that corpus instead.
	e.corpusSeed = defaultSeed + 1
	res, err := runWorkload(e, newSynthAccel(), 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("synth-accel on corpus %d: %d of %d scenarios disagree with plain CEGAR", e.corpusSeed, res.failed, res.attempted)
	}
}

// TestDaemonPinsEveryScale recomputes the daemon batch's reference
// verdicts (in-process, no daemon) at every scale and holds them to
// golden.json, so a pin left behind by a change to the batch or to the
// verdict's fields fails here and not on the benchmark's first run.
func TestDaemonPinsEveryScale(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	defer runCleanups()
	for name, sc := range scales {
		e, err := newEnv(root, spec, sc, defaultSeed, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		d := newDaemonBatch()
		if err := d.generate(e); err != nil {
			t.Fatal(err)
		}
		if err := d.prepare(e); err != nil {
			t.Fatal(err)
		}
		if pins := e.pins(); pins.Jobs != len(d.jobs) || pins.JobVerdicts != d.verdictHash() {
			t.Errorf("scale %s: %d jobs, verdicts %s; golden.json pins %d, %s", name, len(d.jobs), d.verdictHash(), pins.Jobs, pins.JobVerdicts)
		}
	}
}
