package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func mkFile(vals map[string]map[string]Metric) *File {
	f := NewFile("test", 1, 1)
	for exp, ms := range vals {
		e := Experiment{Name: exp, Metrics: ms}
		f.Experiments[exp] = e
	}
	return f
}

func TestDiffIdentity(t *testing.T) {
	f := mkFile(map[string]map[string]Metric{
		"fig5a": {"relative/fib": {Value: 0.9}},
	})
	rep := Diff(f, f, 0.10)
	if rep.Failed() || len(rep.Changes) != 0 || len(rep.Missing) != 0 {
		t.Fatalf("identity diff not clean: %s", rep)
	}
}

func TestDiffRegressionDirections(t *testing.T) {
	old := mkFile(map[string]map[string]Metric{
		"fig6b": {"normalized/300:1x2": {Value: 1.5, HigherIsBetter: true}},
		"fig5a": {"relative/fib": {Value: 1.0, HigherIsBetter: false}},
	})

	// 20% slowdown on the lower-is-better metric: regression.
	slower := mkFile(map[string]map[string]Metric{
		"fig6b": {"normalized/300:1x2": {Value: 1.5, HigherIsBetter: true}},
		"fig5a": {"relative/fib": {Value: 1.2, HigherIsBetter: false}},
	})
	rep := Diff(old, slower, 0.10)
	if !rep.Failed() {
		t.Fatalf("20%% slowdown not flagged: %s", rep)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Key() != "fig5a/relative/fib" {
		t.Fatalf("wrong regressions: %+v", regs)
	}

	// Same movement on the higher-is-better metric: a drop regresses,
	// a rise improves.
	faster := mkFile(map[string]map[string]Metric{
		"fig6b": {"normalized/300:1x2": {Value: 1.9, HigherIsBetter: true}},
		"fig5a": {"relative/fib": {Value: 0.8, HigherIsBetter: false}},
	})
	rep = Diff(old, faster, 0.10)
	if rep.Failed() {
		t.Fatalf("improvements flagged as failure: %s", rep)
	}
	if len(rep.Changes) != 2 {
		t.Fatalf("improvements not reported: %s", rep)
	}

	drop := mkFile(map[string]map[string]Metric{
		"fig6b": {"normalized/300:1x2": {Value: 1.0, HigherIsBetter: true}},
		"fig5a": {"relative/fib": {Value: 1.0, HigherIsBetter: false}},
	})
	rep = Diff(old, drop, 0.10)
	if len(rep.Regressions()) != 1 || rep.Regressions()[0].Experiment != "fig6b" {
		t.Fatalf("throughput drop not a regression: %s", rep)
	}
}

// The litmus_compress contract: states_per_byte is higher-is-better (a
// drop means the collapsed encoding got less dense), peak_visited_bytes
// is lower-is-better (a rise is a memory regression), and losing either
// key fails the diff outright.
func TestDiffCompressMetricDirections(t *testing.T) {
	base := func() *File {
		return mkFile(map[string]map[string]Metric{
			"litmus_compress": {
				"states_per_byte/bakery3-mfence":    {Value: 0.040, Unit: "states/B", HigherIsBetter: true},
				"peak_visited_bytes/bakery3-mfence": {Value: 2.0e6, Unit: "B", HigherIsBetter: false},
				"sym_ratio/bakery3-mfence":          {Value: 2.9, Unit: "ratio", HigherIsBetter: true},
			},
		})
	}

	// Density drop + footprint rise: both directions regress.
	bloated := base()
	e := bloated.Experiments["litmus_compress"]
	e.Metrics["states_per_byte/bakery3-mfence"] = Metric{Value: 0.020, Unit: "states/B", HigherIsBetter: true}
	e.Metrics["peak_visited_bytes/bakery3-mfence"] = Metric{Value: 4.0e6, Unit: "B", HigherIsBetter: false}
	rep := Diff(base(), bloated, 0.10)
	if !rep.Failed() {
		t.Fatalf("encoding bloat not flagged: %s", rep)
	}
	if regs := rep.Regressions(); len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %+v", regs)
	}

	// The same movements inverted are improvements, not failures.
	denser := base()
	e = denser.Experiments["litmus_compress"]
	e.Metrics["states_per_byte/bakery3-mfence"] = Metric{Value: 0.080, Unit: "states/B", HigherIsBetter: true}
	e.Metrics["peak_visited_bytes/bakery3-mfence"] = Metric{Value: 1.0e6, Unit: "B", HigherIsBetter: false}
	if rep := Diff(base(), denser, 0.10); rep.Failed() {
		t.Fatalf("improvement flagged as failure: %s", rep)
	} else if len(rep.Changes) != 2 {
		t.Fatalf("improvements not reported: %s", rep)
	}

	// A build that silently stops emitting the compression metrics must
	// fail, not pass vacuously.
	stripped := base()
	e = stripped.Experiments["litmus_compress"]
	delete(e.Metrics, "states_per_byte/bakery3-mfence")
	delete(e.Metrics, "peak_visited_bytes/bakery3-mfence")
	rep = Diff(base(), stripped, 0.10)
	if !rep.Failed() || len(rep.Missing) != 2 {
		t.Fatalf("dropped compression metrics not flagged: %s", rep)
	}
}

func TestDiffThreshold(t *testing.T) {
	old := mkFile(map[string]map[string]Metric{
		"dekker": {"real_ns_per_iter/mfence": {Value: 100}},
	})
	within := mkFile(map[string]map[string]Metric{
		"dekker": {"real_ns_per_iter/mfence": {Value: 108}},
	})
	if rep := Diff(old, within, 0.10); rep.Failed() || len(rep.Changes) != 0 {
		t.Fatalf("8%% change beyond 10%% threshold: %s", rep)
	}
	beyond := mkFile(map[string]map[string]Metric{
		"dekker": {"real_ns_per_iter/mfence": {Value: 108}},
	})
	if rep := Diff(old, beyond, 0.05); !rep.Failed() {
		t.Fatalf("8%% change within 5%% threshold: %s", rep)
	}
}

func TestDiffMissingKeys(t *testing.T) {
	old := mkFile(map[string]map[string]Metric{
		"fig4":   {"benchmarks": {Value: 12, HigherIsBetter: true}},
		"dekker": {"real_ns_per_iter/mfence": {Value: 100}},
	})

	// Dropped metric: fails even though nothing regressed numerically —
	// the fig4-omitted-from-json bug class.
	noMetric := mkFile(map[string]map[string]Metric{
		"fig4":   {},
		"dekker": {"real_ns_per_iter/mfence": {Value: 100}},
	})
	rep := Diff(old, noMetric, 0.10)
	if !rep.Failed() || len(rep.Missing) != 1 || rep.Missing[0] != "fig4/benchmarks" {
		t.Fatalf("dropped metric not flagged: %s", rep)
	}

	// Dropped experiment.
	noExp := mkFile(map[string]map[string]Metric{
		"dekker": {"real_ns_per_iter/mfence": {Value: 100}},
	})
	rep = Diff(old, noExp, 0.10)
	if !rep.Failed() || len(rep.Missing) != 1 || rep.Missing[0] != "fig4" {
		t.Fatalf("dropped experiment not flagged: %s", rep)
	}

	// New keys are informational, not failures.
	extra := mkFile(map[string]map[string]Metric{
		"fig4":   {"benchmarks": {Value: 12, HigherIsBetter: true}},
		"dekker": {"real_ns_per_iter/mfence": {Value: 100}},
		"novel":  {"m": {Value: 1}},
	})
	rep = Diff(old, extra, 0.10)
	if rep.Failed() || len(rep.Added) != 1 {
		t.Fatalf("added keys mishandled: %s", rep)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	old := mkFile(map[string]map[string]Metric{
		"theorems": {"all_pass": {Value: 0, HigherIsBetter: true}},
	})
	cur := mkFile(map[string]map[string]Metric{
		"theorems": {"all_pass": {Value: 1, HigherIsBetter: true}},
	})
	if rep := Diff(old, cur, 0.10); rep.Failed() {
		t.Fatalf("0->1 on higher-is-better failed: %s", rep)
	}
	if rep := Diff(cur, old, 0.10); !rep.Failed() {
		t.Fatalf("1->0 on higher-is-better passed: %s", rep)
	}
}

func TestDiffOverflowRegression(t *testing.T) {
	withObs := func(overflow uint64) *File {
		f := mkFile(map[string]map[string]Metric{
			"signals": {"acks": {Value: 100, HigherIsBetter: true}},
		})
		snap := &obs.Snapshot{}
		h := obs.HistogramSnapshot{
			Count: 100 + overflow,
			MaxNs: obs.BucketUpperNs(obs.HistBuckets - 1),
			Buckets: []obs.HistBucket{
				{UpperNs: obs.BucketUpperNs(3), Count: 100},
			},
		}
		if overflow > 0 {
			h.Buckets = append(h.Buckets, obs.HistBucket{
				UpperNs:   obs.BucketUpperNs(obs.HistBuckets - 1),
				Count:     overflow,
				Unbounded: true,
			})
		}
		snap.PutHistogram("ack_ns", h)
		e := f.Experiments["signals"]
		e.Obs = snap
		f.Experiments["signals"] = e
		return f
	}

	clean := withObs(0)
	spilled := withObs(25)

	// Overflow appearing where there was none: regression even though
	// every guarded metric is unchanged.
	rep := Diff(clean, spilled, 0.10)
	if !rep.Failed() {
		t.Fatalf("overflow growth not flagged: %s", rep)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Key() != "signals/obs_overflow/ack_ns" {
		t.Fatalf("wrong regressions: %+v", regs)
	}

	// Overflow draining back into range: improvement, not a failure, and
	// the vanished unbounded bucket is not a Missing key.
	rep = Diff(spilled, clean, 0.10)
	if rep.Failed() {
		t.Fatalf("overflow shrink flagged as failure: %s", rep)
	}
	if len(rep.Changes) != 1 || rep.Changes[0].Regression {
		t.Fatalf("overflow shrink not reported as improvement: %s", rep)
	}

	// Identical overflow on both sides: quiet.
	if rep := Diff(spilled, withObs(25), 0.10); len(rep.Changes) != 0 {
		t.Fatalf("equal overflow reported: %s", rep)
	}

	// Experiments without obs snapshots are untouched by the overflow
	// pass.
	if rep := Diff(mkFile(map[string]map[string]Metric{"x": {"m": {Value: 1}}}),
		mkFile(map[string]map[string]Metric{"x": {"m": {Value: 1}}}), 0.10); rep.Failed() {
		t.Fatalf("obs-less diff failed: %s", rep)
	}
}

func TestFileRoundTripAndVersionCheck(t *testing.T) {
	dir := t.TempDir()
	f := mkFile(map[string]map[string]Metric{
		"fig4": {"benchmarks": {Value: 12, Unit: "count", HigherIsBetter: true}},
	})
	path := filepath.Join(dir, "b.json")
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion || back.GoVersion != f.GoVersion {
		t.Fatalf("round trip lost provenance: %+v", back)
	}
	m := back.Experiments["fig4"].Metrics["benchmarks"]
	if m.Value != 12 || m.Unit != "count" || !m.HigherIsBetter {
		t.Fatalf("round trip lost metric: %+v", m)
	}

	f.SchemaVersion = SchemaVersion + 1
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("future schema version accepted")
	}
}

// TestDiffNotesGOMAXPROCS: files recorded at different GOMAXPROCS get a
// note line naming both values, and equal ones none; the note alone
// fails nothing.
func TestDiffNotesGOMAXPROCS(t *testing.T) {
	vals := map[string]map[string]Metric{"e": {"m": {Value: 1}}}
	old, cur := mkFile(vals), mkFile(vals)
	old.GOMAXPROCS, cur.GOMAXPROCS = 1, 4
	rep := Diff(old, cur, 0.1)
	if len(rep.Notes) != 1 || !strings.Contains(rep.String(), "gomaxprocs differ: old 1, new 4") {
		t.Fatalf("notes %q; report:\n%s", rep.Notes, rep)
	}
	if rep.Failed() {
		t.Error("a GOMAXPROCS note failed the diff")
	}
	cur.GOMAXPROCS = 1
	if rep := Diff(old, cur, 0.1); len(rep.Notes) != 0 {
		t.Errorf("equal GOMAXPROCS noted %q", rep.Notes)
	}
}
