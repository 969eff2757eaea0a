package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the default of -seed and of -corpus-seed; the latter
// is the corpus golden.json's pins were taken at.
const defaultSeed = 7

// metricDecl is one metric as BENCHMARK.json declares it. That file is
// the only list of metric names, units and bounds: the driver refuses
// to record a name it does not declare.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// scale sizes the six workloads. ref is what BENCHMARK.json measures:
// every run (set-up + run_seconds of reps) has to fit the benchmark
// driver's budget of 4 + 22 x 6 runs in 3420 s, so a rep is kept to
// about 1-5 s. full keeps ISSUE 11's reference sizes for a human run;
// smoke is the go-test scale.
type scale struct {
	name string
	// procs is the N of the N-process protocols the explore-* workloads
	// check; porSymmetric selects BakeryN(N, l-mfence) on every thread
	// (full) over the asymmetric placement (l-mfence on the primary,
	// mfence on the rest) that closes in ~1.3 s.
	procs        int
	porSymmetric bool
	porDepth     int
	// plainScenarios / accelScenarios size the two corpus sweeps;
	// warmScenarios sizes their warm-up sweep.
	plainScenarios, accelScenarios, warmScenarios int
	// genJobs is how many generated 3-thread jobs join the examples in
	// one daemon batch (examples counts how many of examples/*.litmus);
	// jobStateCap drops generated sources above that many states, so one
	// straggler cannot decide the batch's makespan.
	examples, genJobs, jobStateCap int
	// ckptJobSeed generates the job the checkpoint-overhead probe runs.
	ckptJobSeed int64
	// probeStates is how many distinct states the layer probe walks.
	probeStates int
	// startupCalls and serialScenarios size the per-Explore start-up
	// and the serial Synthesize probes.
	startupCalls, serialScenarios int
}

var scales = map[string]scale{
	"ref": {name: "ref", procs: 3, porDepth: 2,
		plainScenarios: 200, accelScenarios: 100, warmScenarios: 20,
		examples: 20, genJobs: 40, jobStateCap: 25_000, ckptJobSeed: 26,
		probeStates: 50_000, startupCalls: 300, serialScenarios: 100},
	"full": {name: "full", procs: 3, porSymmetric: true, porDepth: 4,
		plainScenarios: 600, accelScenarios: 300, warmScenarios: 20,
		examples: 20, genJobs: 100, jobStateCap: 25_000, ckptJobSeed: 26,
		probeStates: 50_000, startupCalls: 300, serialScenarios: 300},
	"smoke": {name: "smoke", procs: 2, porDepth: 2,
		plainScenarios: 20, accelScenarios: 10, warmScenarios: 4,
		examples: 3, genJobs: 3, jobStateCap: 25_000, ckptJobSeed: 4,
		probeStates: 500, startupCalls: 10, serialScenarios: 10},
}

// env is what every workload sees: where the checkout is, the declared
// metrics, the sizes, the seed and a scratch directory inside the
// checkout.
type env struct {
	root  string
	spec  *benchSpec
	scale scale
	// seed draws what can vary without changing the work: the daemon's
	// submission order and the probe's walk. corpusSeed is the base
	// generator seed of the repair corpus. It is a separate input because
	// independent 200-scenario corpora differ by +-30 % in states
	// explored and 8 % in bytes per state from scenario mix alone, which
	// would drown every bound; only corpus 7 is pinned.
	seed, corpusSeed int64
	tmp              string
	golden           *golden
	tr               *tracer // nil while untraced
}

func newEnv(root string, spec *benchSpec, sc scale, seed, corpusSeed int64) (*env, error) {
	g, err := loadGolden(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	onExit(func() { os.RemoveAll(tmp) })
	return &env{root: root, spec: spec, scale: sc, seed: seed, corpusSeed: corpusSeed, tmp: tmp, golden: g}, nil
}

// pinnedCorpus reports whether golden.json's corpus rows apply.
func (e *env) pinnedCorpus() bool { return e.corpusSeed == defaultSeed }

// repSample is one timed batch: its wall time, the work it did and how
// many of its operations failed their check.
type repSample struct {
	wall        time.Duration
	states      int
	transitions int
	allocBytes  uint64
	mallocs     uint64
	gcCycles    uint32
	attempted   int
	failed      int
	traced      bool
}

// measured runs f between two MemStats reads and fills the sample's
// wall time and allocation deltas. ReadMemStats stops the world, so it
// stays outside the timed interval.
func measured(s *repSample, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	s.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.mallocs = after.Mallocs - before.Mallocs
	s.gcCycles = after.NumGC - before.NumGC
}

// workload is one of the six batch workloads.
type workload interface {
	name() string
	// setupReps is how many times the driver times setup for setup_s.
	setupReps() int
	// setup is everything the system does before the first timed rep:
	// building inputs and a warm-up. It is idempotent; the last call's
	// state is what the reps use.
	setup(e *env) error
	// prepare is the checker's own untimed work (reference verdicts).
	prepare(e *env) error
	// rep runs one batch under span parent and checks its outputs. A
	// wrong output is a failed operation in the sample; an error means
	// the batch could not run at all.
	rep(e *env, parent int) (repSample, error)
	// layers runs the traced-run-only probes and records the per-layer
	// metrics; reps holds every rep of the run, traced and untraced.
	layers(e *env, parent int, reps []repSample, m *metrics) error
}

func allWorkloads() []workload {
	return []workload{
		newExplorePlain(), newExploreQuotient(), newExplorePOR(),
		newSynthPlain(), newSynthAccel(), newDaemonBatch(),
	}
}

func workloadByName(name string) workload {
	for _, w := range allWorkloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// metrics collects one run's values for the names one section of
// BENCHMARK.json declares.
type metrics struct {
	decls  []metricDecl
	values map[string]float64
}

func newMetrics(decls []metricDecl) *metrics {
	return &metrics{decls: decls, values: make(map[string]float64)}
}

// set records a value; a name BENCHMARK.json does not declare is a bug
// in the driver, so it panics rather than dropping the number.
func (m *metrics) set(name string, v float64) {
	for _, d := range m.decls {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in BENCHMARK.json")
}

// result is one run of one workload.
type result struct {
	traced    bool
	attempted int
	failed    int
	reps      int
	metrics   *metrics
	notes     []string
}

// object is the result in the form the benchmark contract prescribes.
// A declared metric the workload does not exercise reads 0: that layer
// does no work on this workload.
func (r *result) object() map[string]any {
	ms := make(map[string]any, len(r.metrics.decls))
	for _, d := range r.metrics.decls {
		ms[d.Name] = map[string]any{"value": r.metrics.values[d.Name], "unit": d.Unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

func (r *result) print(workload string) {
	kind := "end-to-end, untraced"
	if r.traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("== %s (%s): %d reps, %d operations attempted, %d failed\n", workload, kind, r.reps, r.attempted, r.failed)
	for _, d := range r.metrics.decls {
		if v, ok := r.metrics.values[d.Name]; ok {
			fmt.Printf("%-18s %-38s %16.6g %s\n", workload, d.Name, v, d.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("   %s\n", n)
	}
}

// mismatch reports one failed check on standard error, so that whoever
// runs the benchmark and keeps only the result line and the tail of
// standard error still sees which check failed.
func mismatch(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// medianWall is the median rep wall time in seconds.
func medianWall(reps []repSample) float64 {
	walls := make([]float64, len(reps))
	for i, s := range reps {
		walls[i] = s.wall.Seconds()
	}
	return median(walls)
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank-interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runWorkload is one run: timed set-up, untimed reference work, then
// reps until seconds have passed. An untraced run reports the
// end-to-end metrics as medians over its reps. A traced run alternates
// untraced and traced reps inside the same window, so their ratio is
// the tracing overhead, then runs the layer probes and writes the
// trace file.
func runWorkload(e *env, w workload, seconds float64, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer(w.name())
	}
	e.tr = nil
	root := tr.begin("run", -1)

	setupSpan := tr.begin("setup", root)
	var setups []float64
	for i := 0; i < w.setupReps(); i++ {
		runtime.GC() // a set-up is milliseconds; keep collections out of it
		start := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	tr.end(setupSpan, len(setups))
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	res := &result{traced: traced}
	var reps []repSample
	start := time.Now()
	minReps := 1
	if traced {
		minReps = 2
	}
	for i := 0; i < minReps || time.Since(start).Seconds() < seconds; i++ {
		e.tr = nil
		if traced && i%2 == 1 {
			e.tr = tr
		}
		parent := e.tr.begin("rep", root)
		s, err := w.rep(e, parent)
		e.tr.end(parent, 1)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		s.traced = e.tr != nil
		reps = append(reps, s)
		res.attempted += s.attempted
		res.failed += s.failed
	}
	res.reps = len(reps)

	wallOf := func(wantTraced bool) []float64 {
		var xs []float64
		for _, s := range reps {
			if s.traced == wantTraced {
				xs = append(xs, s.wall.Seconds())
			}
		}
		return xs
	}
	if !traced {
		m := newMetrics(e.spec.EndToEnd)
		var perState []float64
		for _, s := range reps {
			perState = append(perState, ratio(float64(s.allocBytes), float64(s.states)))
		}
		m.set("setup_s", median(setups))
		m.set("verdict_s", median(wallOf(false)))
		m.set("alloc_bytes_per_state", median(perState))
		res.metrics = m
		res.notes = append(res.notes, fmt.Sprintf("verdict_s samples: %d %.3f; setup_s samples: %d", len(reps), wallOf(false), len(setups)))
		return res, nil
	}

	e.tr = tr
	m := newMetrics(e.spec.PerLayer)
	m.set("trace.overhead_share", ratio(median(wallOf(true)), median(wallOf(false)))-1)
	probes := tr.begin("layers", root)
	if err := w.layers(e, probes, reps, m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	tr.end(probes, 1)
	tr.end(root, 1)
	e.tr = nil
	path, err := tr.write(e.root)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.metrics = m
	res.notes = append(res.notes, fmt.Sprintf("%d spans in %s", len(tr.spans), path))
	return res, nil
}

// runRepeatCheck runs every workload's untraced run twice and compares
// each end-to-end metric's two values against its bound.
func runRepeatCheck(e *env, seconds float64) bool {
	ok := true
	fmt.Printf("%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range allWorkloads() {
		var runs [2]*result
		for i := range runs {
			r, err := runWorkload(e, w, seconds, false)
			if err != nil {
				fatalf(1, "%s: %v", w.name(), err)
			}
			runs[i] = r
			if r.failed > 0 {
				fmt.Printf("%-18s run %d: %d of %d operations failed\n", w.name(), i+1, r.failed, r.attempted)
				ok = false
			}
		}
		for _, d := range e.spec.EndToEnd {
			a, b := runs[0].metrics.values[d.Name], runs[1].metrics.values[d.Name]
			diff := ratio(b-a, a)
			verdict := ""
			if math.Abs(diff) > d.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-18s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.name(), d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}
