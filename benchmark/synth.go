package main

import (
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/litmuslang"
	"repro/internal/synth"
	"repro/internal/tso"
)

// synthSetupReps: a corpus set-up is a warm-up sweep of a few hundred
// milliseconds.
const synthSetupReps = 5

// synthWorkload is one corpus repair sweep per rep through
// harness.RunCorpus, as `fencesynth -corpus` runs it: scan, generate,
// compile, synthesize, splice, exact re-verify. Nested synth.Options
// defaults (Workers, Parallel = 0) stay as that command leaves them.
type synthWorkload struct {
	workloadName string
	scenarios    func(sc scale) int
	opts         synth.Options
	// plainReference makes prepare run the plain sweep over the same
	// scenarios and hold this workload's rows to it.
	plainReference bool

	reference []string // per-row verdicts each rep must reproduce; nil = cross-checks only
	last      *harness.CorpusResult
}

func (w *synthWorkload) name() string   { return w.workloadName }
func (w *synthWorkload) setupReps() int { return synthSetupReps }

func (w *synthWorkload) corpus(e *env, scenarios int) harness.CorpusOptions {
	return harness.CorpusOptions{Scenarios: scenarios, Seed: e.corpusSeed, Workers: workers, Synth: w.opts}
}

func (w *synthWorkload) sweep(e *env) (*harness.CorpusResult, error) {
	return harness.RunCorpus(w.corpus(e, w.scenarios(e.scale)))
}

func (w *synthWorkload) setup(e *env) error {
	_, err := harness.RunCorpus(w.corpus(e, e.scale.warmScenarios))
	return err
}

// corpusRows renders a sweep's verdicts one line per scenario: the
// unrepairable flag, the fence count and the cost, which both corpus
// legs must agree on.
func corpusRows(res *harness.CorpusResult) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		switch {
		case r.Err != nil:
			rows[i] = "error: " + r.Err.Error()
		case r.Unrepairable:
			rows[i] = "unrepairable"
		default:
			rows[i] = fmt.Sprintf("%d fences, cost %g", r.Fences, r.Cost)
		}
	}
	return rows
}

func (w *synthWorkload) prepare(e *env) error {
	n := w.scenarios(e.scale)
	w.reference = nil
	if e.pinnedCorpus() {
		pinned := e.pins().CorpusRows
		if len(pinned) < n {
			return fmt.Errorf("golden.json pins %d corpus rows for scale %s, need %d (run -update-golden)", len(pinned), e.scale.name, n)
		}
		w.reference = pinned[:n]
	}
	if w.plainReference {
		plain := harness.CorpusOptions{Scenarios: n, Seed: e.corpusSeed, Workers: workers}
		res, err := harness.RunCorpus(plain)
		if err != nil {
			return err
		}
		rows := corpusRows(res)
		for i := range w.reference {
			if rows[i] != w.reference[i] {
				return fmt.Errorf("plain reference sweep row %d is %q, golden.json pins %q", i, rows[i], w.reference[i])
			}
		}
		w.reference = rows
	}
	return nil
}

func (w *synthWorkload) rep(e *env, parent int) (repSample, error) {
	var s repSample
	var err error
	call := e.tr.begin("harness.RunCorpus", parent)
	measured(&s, func() { w.last, err = w.sweep(e) })
	e.tr.end(call, 1)
	if err != nil {
		return s, err
	}
	rows := corpusRows(w.last)
	s.attempted = w.scenarios(e.scale)
	s.states = w.last.StatesExplored
	s.failed = s.attempted - len(rows) // a scan that came up short
	for i, r := range w.last.Rows {
		if r.Err != nil || (w.reference != nil && rows[i] != w.reference[i]) {
			want := "(no pin for this corpus)"
			if w.reference != nil {
				want = w.reference[i]
			}
			mismatch("%s: scenario %d (seed %d): %q, want %q", w.workloadName, i, r.Seed, rows[i], want)
			s.failed++
		}
	}
	// The tallies follow from the rows; they are pinned for the sweep
	// that covers the whole pinned corpus, where a reader expects them.
	if pins := e.pins(); e.pinnedCorpus() && len(rows) == len(pins.CorpusRows) &&
		[3]int{w.last.Repaired, w.last.AlreadySafe, w.last.Unrepairable} != [3]int{pins.Repaired, pins.Safe, pins.Unrepair} {
		mismatch("%s: %d repaired / %d safe / %d unrepairable, golden.json pins %d / %d / %d", w.workloadName,
			w.last.Repaired, w.last.AlreadySafe, w.last.Unrepairable, pins.Repaired, pins.Safe, pins.Unrepair)
		s.failed++
	}
	return s, nil
}

func newSynthPlain() *synthWorkload {
	return &synthWorkload{workloadName: "synth-plain",
		scenarios: func(sc scale) int { return sc.plainScenarios }}
}

// corpusScenarios repeats RunCorpus's scan with public calls: generator
// seeds upward from the corpus base, keeping sources that declare a
// property. It returns the first n and how many seeds that took.
func corpusScenarios(e *env, n int) (kept []*litmuslang.Compiled, scanned int, err error) {
	for seed := e.corpusSeed; len(kept) < n; seed++ {
		if scanned++; scanned > 10*n {
			return nil, 0, fmt.Errorf("corpus scan found %d of %d scenarios in %d seeds", len(kept), n, scanned)
		}
		c, err := litmuslang.CompileSource(litmusgen.Generate(seed, litmusgen.CorpusParams()))
		if err == nil && c.HasProperty() {
			kept = append(kept, c)
		}
	}
	return kept, scanned, nil
}

// layers is the synth-* traced run: the sweep's own counters, a
// Workers=1 sweep for pool efficiency, one serial Synthesize per
// scenario for the latency distribution, and the per-exploration
// start-up and construction costs a corpus pays thousands of times.
func (w *synthWorkload) layers(e *env, parent int, reps []repSample, m *metrics) error {
	wall := medianWall(reps)
	res := w.last
	resolved := float64(res.Resolved())
	reverified, reverifyStates := 0, 0
	for _, r := range res.Rows {
		if r.ReverifyStates > 0 {
			reverified++
			reverifyStates += r.ReverifyStates
		}
	}
	m.set("harness.repairs_per_min", ratio(resolved, wall/60))
	m.set("litmus.states", float64(res.StatesExplored))
	m.set("litmus.states_per_sec", ratio(float64(res.StatesExplored), wall))
	m.set("synth.exact_checks_per_repair", res.ExactChecksPerRepair())
	m.set("synth.bounded_checks_per_repair", ratio(float64(res.BoundedChecks), resolved))
	m.set("synth.screen_hit_rate", res.ScreenHitRate())
	m.set("synth.states_per_repair", ratio(float64(res.StatesExplored), resolved))
	m.set("synth.reverify_state_share", ratio(float64(reverifyStates), float64(res.StatesExplored)))
	m.set("synth.pruned_sites", float64(res.PrunedSites))
	m.set("synth.restored_sites", float64(res.RestoredSites))
	m.set("synth.explorations_per_sec", ratio(float64(res.ExactChecks+res.BoundedChecks+reverified), wall))

	one := w.corpus(e, w.scenarios(e.scale))
	one.Workers = 1
	id := e.tr.begin("harness.RunCorpus[workers=1]", parent)
	r1, err := harness.RunCorpus(one)
	e.tr.end(id, 1)
	if err != nil {
		return err
	}
	m.set("harness.pool_efficiency", ratio(r1.Elapsed.Seconds(), workers*wall))

	scenarios, scanned, err := corpusScenarios(e, e.scale.serialScenarios)
	if err != nil {
		return err
	}
	var lat []float64
	for _, c := range scenarios {
		prob, err := c.Problem()
		if err != nil {
			return err
		}
		id := e.tr.begin("synth.Synthesize", parent)
		start := time.Now()
		_, err = synth.Synthesize(prob, w.opts)
		lat = append(lat, float64(time.Since(start).Microseconds())/1e3)
		e.tr.end(id, 1)
		if err != nil {
			return fmt.Errorf("serial synthesize of %s: %w", c.Name, err)
		}
	}
	m.set("synth.synthesize_ms_p50", quantile(lat, 0.5))
	m.set("synth.synthesize_ms_p95", quantile(lat, 0.95))

	m.set("litmusgen.generate_us_per_scenario", timeBatch(e, parent, "litmusgen.Generate", scanned, func() time.Duration {
		start := time.Now()
		for i := 0; i < scanned; i++ {
			sink += len(litmusgen.Generate(e.corpusSeed+int64(i), litmusgen.CorpusParams()))
		}
		return time.Since(start)
	})/1e3)
	m.set("tso.new_machine_us", timeBatch(e, parent, "tso.NewMachine", len(scenarios), func() time.Duration {
		start := time.Now()
		for _, c := range scenarios {
			sink += len(c.Build().Procs)
		}
		return time.Since(start)
	})/1e3)
	type spliceJob struct {
		prog  *tso.Program
		edits []tso.FenceEdit
	}
	var jobs []spliceJob
	for _, c := range scenarios {
		edits := make([][]tso.FenceEdit, len(c.Programs))
		for _, site := range synth.Sites(c.Programs) {
			edits[site.Thread] = append(edits[site.Thread],
				tso.FenceEdit{Instr: site.Instr, Lmfence: site.LmfenceOK, Scratch: synth.DefaultScratchReg})
		}
		for t, p := range c.Programs {
			jobs = append(jobs, spliceJob{p, edits[t]})
		}
	}
	m.set("tso.splice_us", timeBatch(e, parent, "tso.Splice", len(jobs), func() time.Duration {
		start := time.Now()
		for _, j := range jobs {
			sink += len(tso.Splice(j.prog, j.edits).BaseOf)
		}
		return time.Since(start)
	})/1e3)
	startup, err := exploreStartupUs(e, parent)
	if err != nil {
		return err
	}
	m.set("litmus.explore_startup_us", startup)
	return nil
}

// exploreStartupUs is the median wall time of one whole litmus.Explore
// of the catalog's 77-state SB test under reduction, as synthesis
// issues its checks: almost all of it is engine start-up, which a
// corpus of ~270-state explorations pays thousands of times.
func exploreStartupUs(e *env, parent int) (float64, error) {
	sb := litmus.Catalog()[0]
	var us []float64
	id := e.tr.begin("litmus.Explore[SB]", parent)
	for i := 0; i < e.scale.startupCalls; i++ {
		start := time.Now()
		if _, err := litmus.RunCatalogTestOpts(sb, litmus.Options{Reduction: true}); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	e.tr.end(id, e.scale.startupCalls)
	return median(us), nil
}
