package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// TestGoldenAllExperiments is the end-to-end pipeline test: run every
// canonical experiment at test scale through the same runner
// cmd/lbmfbench uses, write the bench file, read it back, and check
// that every experiment key is present with metrics — the regression
// that motivated this pipeline was fig4 silently missing from -json.
func TestGoldenAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite at test scale")
	}
	opt := harness.QuickDefaults()

	file := NewFile("test", opt.Reps, opt.Procs)
	for _, name := range Names {
		ran, err := RunExperiment(name, opt, core.ModeAsymmetricSW)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ran.Tables) == 0 {
			t.Errorf("%s: no tables", name)
		}
		for _, tab := range ran.Tables {
			if tab.String() == "" {
				t.Errorf("%s: empty table", name)
			}
		}
		file.Experiments[name] = ran.Exp
	}

	path := filepath.Join(t.TempDir(), "BENCH_golden.json")
	if err := Write(path, file); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if back.SchemaVersion != SchemaVersion {
		t.Errorf("schema version = %d", back.SchemaVersion)
	}
	if back.GOMAXPROCS <= 0 || back.GoVersion == "" || back.Scale != "test" {
		t.Errorf("provenance incomplete: %+v", back)
	}
	for _, name := range Names {
		exp, ok := back.Experiments[name]
		if !ok {
			t.Errorf("experiment %q missing from bench file", name)
			continue
		}
		if len(exp.Metrics) == 0 {
			t.Errorf("experiment %q has no metrics", name)
		}
		if exp.ElapsedSeconds < 0 {
			t.Errorf("experiment %q has negative elapsed", name)
		}
	}

	// Key pin: the diffable surface (every metric key with its unit and
	// direction, every sample key) must be the committed baseline's.
	// fig6a/fig6b sweep fewer cells under QuickDefaults, so there the
	// produced keys need only be a subset.
	base, err := ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names {
		subset := name == "fig6a" || name == "fig6b"
		if d := keyDiff(base.Experiments[name], back.Experiments[name], subset); d != "" {
			t.Errorf("experiment %q drifted from BENCH_baseline.json:%s", name, d)
		}
	}

	// The instrumented experiments must carry obs snapshots through the
	// round trip.
	for _, name := range []string{"theorems", "litmus_por", "fig5a", "fig5b", "fig6a", "fig6b", "overhead"} {
		exp := back.Experiments[name]
		if exp.Obs == nil || exp.Obs.Empty() {
			t.Errorf("experiment %q lost its obs snapshot", name)
		}
	}
	// Spot-check semantic content: fig6 locks counted reads; theorems
	// explored states.
	if c := back.Experiments["fig6a"].Obs.Counters["reads"]; c == 0 {
		t.Error("fig6a obs recorded no reads")
	}
	if c := back.Experiments["theorems"].Obs.Counters["claim_wins"]; c == 0 {
		t.Error("theorems obs recorded no visited-set wins")
	}
	// The POR experiment runs reduced: its obs must carry the pruning
	// counters and its guarded ratios must show an actual reduction.
	por := back.Experiments["litmus_por"]
	if c := por.Obs.Counters["por_slept_transitions"]; c == 0 {
		t.Error("litmus_por obs recorded no slept transitions")
	}
	for _, k := range []string{"ratio/sb", "ratio/dekker-nofence", "ratio/bakery-nofence"} {
		if m, ok := por.Metrics[k]; !ok || m.Value < 2 {
			t.Errorf("litmus_por %s = %+v, want >= 2x reduction", k, m)
		}
	}

	// The PSO experiment must classify the whole catalog correctly
	// under both models, and the Principle-3 tests must actually widen
	// under per-address buffering.
	pso := back.Experiments["litmus_pso"]
	if m, ok := pso.Metrics["all_pass"]; !ok || m.Value != 1 {
		t.Errorf("litmus_pso all_pass = %+v, want 1", m)
	}
	for _, k := range []string{"ratio/MP", "ratio/2+2W"} {
		if m, ok := pso.Metrics[k]; !ok || m.Value <= 1 {
			t.Errorf("litmus_pso %s = %+v, want > 1x PSO widening", k, m)
		}
	}

	// The fuzz experiment must have cross-checked a non-degenerate
	// corpus with zero divergences at every generator mix.
	fz := back.Experiments["litmus_fuzz"]
	for _, k := range []string{"divergences/default", "divergences/3thread", "divergences/deep-sb"} {
		if m, ok := fz.Metrics[k]; !ok || m.Value != 0 {
			t.Errorf("litmus_fuzz %s = %+v, want present and 0", k, m)
		}
	}
	if m := fz.Metrics["programs/default"]; m.Value < 30 {
		t.Errorf("litmus_fuzz default mix fully checked %v programs, want >= 30", m.Value)
	}

	// Every throughput the registry emits must read higher-is-better, or
	// benchdiff reports a gain as a regression.
	if bad := wrongRateDirections(back); len(bad) > 0 {
		t.Errorf("rates recorded lower-is-better: %v", bad)
	}

	// A self-diff of the freshly produced file must be clean — this is
	// the same invariant the acceptance pipeline checks with
	// `benchdiff out.json out.json`.
	if rep := Diff(back, back, 0.10); rep.Failed() {
		t.Errorf("self-diff failed: %s", rep)
	}

	// Per-benchmark samples from fig5 survived with their rep counts.
	fig5 := back.Experiments["fig5a"]
	if len(fig5.Samples) == 0 {
		t.Fatal("fig5a has no samples")
	}
	for k, s := range fig5.Samples {
		if s.N != opt.Reps {
			t.Errorf("sample %q has N=%d, want %d", k, s.N, opt.Reps)
		}
	}
}

// wrongRateDirections lists the "per_sec" metrics of f, as
// experiment/key, that are recorded lower-is-better. A rate is a
// throughput: more is always better.
func wrongRateDirections(f *File) []string {
	var bad []string
	for name, exp := range f.Experiments {
		for k, m := range exp.Metrics {
			if strings.Contains(k, "per_sec") && !m.HigherIsBetter {
				bad = append(bad, name+"/"+k)
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// TestBaselineRatesHigherIsBetter holds the committed baseline, whose
// keys and directions TestGoldenAllExperiments pins the registry's
// output to, to the same rule: every "per_sec" metric is
// higher-is-better.
func TestBaselineRatesHigherIsBetter(t *testing.T) {
	base, err := ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bad := wrongRateDirections(base); len(bad) > 0 {
		t.Errorf("BENCH_baseline.json records rates lower-is-better: %v", bad)
	}
}

// keySignatures flattens an experiment's diffable surface: each metric
// key with its unit and direction, each sample key.
func keySignatures(e Experiment) map[string]string {
	sig := make(map[string]string)
	for k, m := range e.Metrics {
		sig["metric "+k] = fmt.Sprintf("unit=%q higher_is_better=%v", m.Unit, m.HigherIsBetter)
	}
	for k := range e.Samples {
		sig["sample "+k] = ""
	}
	return sig
}

// keyDiff lists the keys missing from, extra in, or changed in got
// relative to want; subset tolerates missing ones. Empty means equal.
func keyDiff(want, got Experiment, subset bool) string {
	w, g := keySignatures(want), keySignatures(got)
	var lines []string
	for k, ws := range w {
		gs, ok := g[k]
		switch {
		case !ok && !subset:
			lines = append(lines, "missing "+k)
		case ok && gs != ws:
			lines = append(lines, fmt.Sprintf("changed %s: %s -> %s", k, ws, gs))
		}
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			lines = append(lines, "extra   "+k)
		}
	}
	if len(lines) == 0 {
		return ""
	}
	sort.Strings(lines)
	return "\n  " + strings.Join(lines, "\n  ")
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig9000", harness.QuickDefaults(), core.ModeAsymmetricSW); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestKnown(t *testing.T) {
	for _, n := range Names {
		if !Known(n) {
			t.Errorf("Known(%q) = false", n)
		}
	}
	if Known("all") || Known("") || Known("fig9000") {
		t.Error("Known accepts non-experiments")
	}
}
