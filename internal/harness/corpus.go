package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/litmuslang"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/tso"
	"repro/internal/workloads"
)

// This file is the synthesis-at-scale driver: a corpus of generated
// litmus scenarios pushed through the full repair pipeline —
// generate → compile → synthesize → splice the optimal placement back
// in → re-verify the spliced program on the exact engine. It backs both
// `fencesynth -corpus` and the synth_throughput bench experiment.

// corpusMaxStates bounds every exploration of a corpus run (candidate
// verifications and the final re-verification alike) when the caller
// sets no budget; generated scenarios are sized to stay far below it.
const corpusMaxStates = 200_000

// CorpusOptions configures one corpus repair sweep.
type CorpusOptions struct {
	// Scenarios is how many generated scenarios *with a property* to
	// repair; property-free seeds are skipped during scanning (about a
	// third of non-critical-section seeds decline to assert anything).
	Scenarios int
	// Seed is the base generator seed; scanning walks upward from it.
	Seed int64
	// Workers is the repair worker-pool size (0 = GOMAXPROCS). Each
	// worker runs whole scenarios; per-candidate exploration parallelism
	// inside a scenario is governed by Synth.Workers, which RunCorpus
	// sets, when it is 0, to the pool's share of the cores:
	// max(1, GOMAXPROCS / Workers).
	Workers int
	// Params bounds the generated scenarios (zero value =
	// litmusgen.CorpusParams, the planted-race mix that makes a sweep
	// exercise actual repairs instead of only safe/unrepairable
	// verdicts).
	Params litmusgen.Params
	// Synth configures the synthesizer.
	Synth synth.Options

	// Journal, when non-empty, is the path of the corpus journal: every
	// completed scenario appends one fsynced verdict line, and a rerun
	// with the same options restores the journaled rows instead of
	// re-synthesizing them (CorpusResult.Resumed counts them). A journal
	// from a run with different scenario- or verdict-determining options
	// is refused with ErrJournalMismatch.
	Journal string

	// ScenarioTimeout bounds one scenario's wall-clock trip through the
	// pipeline (0 = unbounded). A timed-out scenario is recorded as an
	// errored row and the worker moves on; the abandoned repair keeps
	// running in the background until its own state budget stops it,
	// so timeouts bound the sweep's latency, not its peak load.
	ScenarioTimeout time.Duration

	// Faults is consulted at fault.CorpusJournal after each journaled
	// scenario; a Drop there aborts the sweep mid-corpus
	// (CorpusResult.Aborted) — the in-process stand-in for a kill, used
	// by the crash-recovery tests to prove a resumed sweep restores
	// every journaled verdict.
	Faults *fault.Injector

	// hook, when non-nil, runs on the worker goroutine before each
	// scenario's repair. Tests use it to inject panics and stalls.
	hook func(i int, seed int64)
}

// CorpusRow is one scenario's trip through the pipeline.
type CorpusRow struct {
	Seed int64
	Name string

	// Fences/Cost describe the optimal repair; AlreadySafe marks the
	// empty placement (the scenario's own fences, if any, suffice).
	Fences      int
	Cost        float64
	AlreadySafe bool
	// Unrepairable marks a property that fails without any TSO
	// reordering (always concluded from an exact run).
	Unrepairable bool

	// Synthesis counters from synth.Result: ExactChecks is its
	// CandidatesChecked (every check is an exact, reduced exploration),
	// States its StatesExplored.
	ExactChecks int
	States      int

	// ReverifyStates is the exact re-verification of the spliced repair
	// (the end-to-end acceptance step: the placement the synthesizer
	// reported, spliced into the base programs, explored exhaustively).
	ReverifyStates int

	// FrontierNodes / FrontierTime are synth.Result's frontier
	// enumeration counters (not journaled: a resumed row reports 0).
	FrontierNodes int
	FrontierTime  time.Duration

	Err error
}

// CorpusResult aggregates a sweep.
type CorpusResult struct {
	Rows []CorpusRow
	// SeedsScanned counts generator seeds consumed, including the
	// property-free ones that were skipped.
	SeedsScanned int

	Repaired     int // non-empty optimal placement, re-verified exactly
	AlreadySafe  int // empty optimal placement, re-verified exactly
	Unrepairable int
	Errors       int

	// Resumed counts rows restored from the journal instead of being
	// re-synthesized; Timeouts and Panics count this run's scenario
	// failures by cause (both are also Errors). Aborted marks a sweep
	// stopped mid-corpus by a fault.CorpusJournal crash injection —
	// unprocessed scenarios are absent from Rows' tallies and the
	// journal holds everything completed.
	Resumed  int
	Timeouts int
	Panics   int
	Aborted  bool

	// Obs carries the sweep's robustness counters for the metrics
	// endpoints (corpus_resumed, corpus_timeouts, corpus_panics,
	// corpus_journal_errors), the exploration workers each verification
	// ran with (corpus_explore_workers) and the summed frontier
	// enumeration counters (frontier_nodes, frontier_ns).
	Obs obs.Snapshot
	// ContractFailures counts spliced repairs the exact engine refuted —
	// the must-stay-zero number: a synthesis result that does not
	// survive its own re-verification is a synthesizer bug.
	ContractFailures int

	ExactChecks    int
	StatesExplored int
	Elapsed        time.Duration

	// Deprecated: BoundedChecks, PrunedSites and RestoredSites counted
	// the work of synthesis accelerators that no longer exist; they are
	// always zero.
	BoundedChecks int
	PrunedSites   int
	RestoredSites int
}

// Resolved counts scenarios that reached a definite verdict.
func (r *CorpusResult) Resolved() int { return r.Repaired + r.AlreadySafe + r.Unrepairable }

// RepairsPerMinute is end-to-end pipeline throughput over resolved
// scenarios.
func (r *CorpusResult) RepairsPerMinute() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Resolved()) / r.Elapsed.Minutes()
}

// ExactChecksPerRepair is how many exact model-checking runs each
// resolved scenario needed.
func (r *CorpusResult) ExactChecksPerRepair() float64 {
	if r.Resolved() == 0 {
		return 0
	}
	return float64(r.ExactChecks) / float64(r.Resolved())
}

// Deprecated: ScreenHitRate reported a deleted screen; it is always
// zero.
func (r *CorpusResult) ScreenHitRate() float64 { return 0 }

// scanScenarios generates seeds upward from co.Seed until it has
// collected co.Scenarios compiled scenarios with a property (or hits the
// scan cap, so degenerate params cannot loop forever).
func scanScenarios(co CorpusOptions) (scenarios []*litmuslang.Compiled, seeds []int64, scanned int) {
	scanCap := co.Scenarios * 10
	for seed := co.Seed; len(scenarios) < co.Scenarios && scanned < scanCap; seed++ {
		scanned++
		src := litmusgen.Generate(seed, co.Params)
		c, err := litmuslang.CompileSource(src)
		if err != nil || !c.HasProperty() {
			// The generator guarantees compilation; a property is optional.
			continue
		}
		scenarios = append(scenarios, c)
		seeds = append(seeds, seed)
	}
	return scenarios, seeds, scanned
}

// repairOne runs the whole pipeline for one compiled scenario.
func repairOne(c *litmuslang.Compiled, seed int64, opts synth.Options) CorpusRow {
	row := CorpusRow{Seed: seed, Name: c.Name}
	prob, err := c.Problem()
	if err != nil {
		row.Err = err
		return row
	}
	r, err := synth.Synthesize(prob, opts)
	if r != nil {
		row.ExactChecks = r.CandidatesChecked
		row.States = r.StatesExplored
		row.FrontierNodes = r.FrontierNodes
		row.FrontierTime = r.FrontierTime
	}
	if err != nil {
		row.Err = err
		return row
	}
	if r.Unrepairable {
		row.Unrepairable = true
		return row
	}

	// End-to-end acceptance: splice the reported optimal placement into
	// the base programs and re-verify the result exhaustively on the
	// exact engine. Nothing the synthesizer believed along the way —
	// memoized verdicts, counterexample pruning — is taken on faith here.
	p := r.Optimal.Placement
	row.Fences = p.Len()
	row.Cost = r.Optimal.Cost
	row.AlreadySafe = p.Len() == 0
	progs := p.Apply(prob.Programs, opts.Scratch)
	build := func() *tso.Machine { return tso.NewMachine(prob.Config, progs...) }
	vres := litmus.Explore(build, litmus.Options{
		Properties: []litmus.Property{prob.Property},
		Workers:    opts.Workers,
		MaxStates:  opts.MaxStates,
		Reduction:  true,
	})
	row.ReverifyStates = vres.States
	switch {
	case vres.Truncated:
		row.Err = fmt.Errorf("re-verification truncated after %d states", vres.States)
	case vres.Violations > 0 || vres.Deadlocks > 0:
		row.Err = fmt.Errorf("spliced repair %v refuted by the exact engine (violations=%d deadlocks=%d)",
			p, vres.Violations, vres.Deadlocks)
	}
	return row
}

// corpusOptionsHash fingerprints the options that determine the
// scenario list and the verdicts — what a journal must agree on to be
// resumable. Workers and timeouts are excluded: they change scheduling,
// not results.
func corpusOptionsHash(co CorpusOptions) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range []byte(fmt.Sprintf("seed=%d n=%d params=%+v synth={mf=%v lmf=%v max=%d fences=%d pw=%v w=%v cost=%v scratch=%d skipmin=%v}",
		co.Seed, co.Scenarios, co.Params,
		co.Synth.AllowMfence, co.Synth.AllowLmfence, co.Synth.MaxStates,
		co.Synth.MaxFences, co.Synth.PrimaryWeight, co.Synth.Weights,
		co.Synth.Cost, co.Synth.Scratch, co.Synth.SkipMinimalityCheck)) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// runScenario executes one scenario with the per-worker safety rails:
// a panic anywhere in the pipeline becomes an errored row instead of
// killing the sweep, and ScenarioTimeout bounds the wall-clock wait.
func runScenario(co CorpusOptions, c *litmuslang.Compiled, seed int64, i int) (row CorpusRow, timedOut, panicked bool) {
	type verdict struct {
		row      CorpusRow
		panicked bool
	}
	run := func() (v verdict) {
		defer func() {
			if r := recover(); r != nil {
				v = verdict{
					row:      CorpusRow{Seed: seed, Name: c.Name, Err: fmt.Errorf("panic during repair: %v", r)},
					panicked: true,
				}
			}
		}()
		if co.hook != nil {
			co.hook(i, seed)
		}
		return verdict{row: repairOne(c, seed, co.Synth)}
	}
	if co.ScenarioTimeout <= 0 {
		v := run()
		return v.row, false, v.panicked
	}
	ch := make(chan verdict, 1)
	go func() { ch <- run() }()
	select {
	case v := <-ch:
		return v.row, false, v.panicked
	case <-time.After(co.ScenarioTimeout):
		return CorpusRow{Seed: seed, Name: c.Name,
			Err: fmt.Errorf("scenario timed out after %v", co.ScenarioTimeout)}, true, false
	}
}

// RunCorpus repairs a corpus of generated scenarios with a worker pool
// and aggregates the verdicts and counters. With Journal set the sweep
// is resumable: completed scenarios persist as they finish, and a
// rerun restores them instead of re-synthesizing. The only error
// returns are journal-level: an unusable journal file or one belonging
// to a different run.
func RunCorpus(co CorpusOptions) (*CorpusResult, error) {
	if co.Params == (litmusgen.Params{}) {
		co.Params = litmusgen.CorpusParams()
	}
	if co.Synth.MaxStates <= 0 {
		co.Synth.MaxStates = corpusMaxStates
	}
	workers := co.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if co.Synth.Workers <= 0 {
		// The pool keeps the cores busy with whole scenarios; explorations
		// that each start GOMAXPROCS workers on top of it only add idle
		// workers spinning for work.
		co.Synth.Workers = max(1, runtime.GOMAXPROCS(0)/workers)
	}

	start := time.Now()
	scenarios, seeds, scanned := scanScenarios(co)
	res := &CorpusResult{Rows: make([]CorpusRow, len(scenarios)), SeedsScanned: scanned}
	processed := make([]bool, len(scenarios))

	var journal *corpusJournal
	if co.Journal != "" {
		var done map[int]CorpusRow
		var err error
		journal, done, err = openCorpusJournal(co.Journal, corpusOptionsHash(co))
		if err != nil {
			return nil, err
		}
		defer journal.close()
		for i, row := range done {
			if i >= 0 && i < len(res.Rows) {
				res.Rows[i] = row
				processed[i] = true
				res.Resumed++
			}
		}
	}

	var aborted atomic.Bool
	var timeouts, panics, journalErrs atomic.Uint64
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if aborted.Load() {
					continue // drain the channel without doing work
				}
				row, timedOut, panicked := runScenario(co, scenarios[i], seeds[i], i)
				res.Rows[i] = row
				processed[i] = true
				if timedOut {
					timeouts.Add(1)
				}
				if panicked {
					panics.Add(1)
				}
				if journal != nil {
					if err := journal.append(i, row); err != nil {
						journalErrs.Add(1)
					}
					if co.Faults.At(fault.CorpusJournal) {
						// Injected kill mid-corpus: stop dispatching. The
						// journal keeps everything completed so far.
						aborted.Store(true)
					}
				}
			}
		}()
	}
	for i := range scenarios {
		if processed[i] {
			continue // journaled by a previous run
		}
		if aborted.Load() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Aborted = aborted.Load()
	res.Timeouts = int(timeouts.Load())
	res.Panics = int(panics.Load())

	var frontierNodes int
	var frontierTime time.Duration
	for i, row := range res.Rows {
		if !processed[i] {
			continue // aborted before this scenario ran
		}
		res.ExactChecks += row.ExactChecks
		res.StatesExplored += row.States + row.ReverifyStates
		frontierNodes += row.FrontierNodes
		frontierTime += row.FrontierTime
		switch {
		case row.Err != nil:
			res.Errors++
			if row.ReverifyStates > 0 { // the exact engine refuted a reported repair
				res.ContractFailures++
			}
		case row.Unrepairable:
			res.Unrepairable++
		case row.AlreadySafe:
			res.AlreadySafe++
		default:
			res.Repaired++
		}
	}
	res.Obs.PutCounter("corpus_scenarios", uint64(len(res.Rows)))
	res.Obs.PutCounter("corpus_resumed", uint64(res.Resumed))
	res.Obs.PutCounter("corpus_timeouts", uint64(res.Timeouts))
	res.Obs.PutCounter("corpus_panics", uint64(res.Panics))
	res.Obs.PutCounter("corpus_explore_workers", uint64(co.Synth.Workers))
	res.Obs.PutCounter("frontier_nodes", uint64(frontierNodes))
	res.Obs.PutCounter("frontier_ns", uint64(frontierTime))
	if je := journalErrs.Load(); je > 0 {
		res.Obs.PutCounter("corpus_journal_errors", je)
	}
	if res.Aborted {
		res.Obs.PutGauge("corpus_aborted", 1)
	}
	return res, nil
}

// Table renders a corpus sweep.
func (r *CorpusResult) Table() *stats.Table {
	t := stats.NewTable(
		"Corpus repair: generated scenarios through synthesize → splice → exact re-verify",
		"scenarios", "repaired", "safe", "unrepairable", "errors",
		"exact checks", "exact/scenario", "repairs/min")
	t.AddRow(len(r.Rows), r.Repaired, r.AlreadySafe, r.Unrepairable, r.Errors,
		r.ExactChecks, fmt.Sprintf("%.2f", r.ExactChecksPerRepair()),
		fmt.Sprintf("%.0f", r.RepairsPerMinute()))
	t.AddNote("every reported repair is spliced into the base programs and re-verified by an")
	t.AddNote("exhaustive (exact, reduced) exploration before it counts")
	return t
}

// synthCorpusScenarios sizes the throughput sweep per scale.
func synthCorpusScenarios(s workloads.Scale) int {
	switch s {
	case workloads.ScaleTest:
		return 40
	case workloads.ScaleSmall:
		return 120
	case workloads.ScaleMedium:
		return 300
	default:
		return 600
	}
}

// SynthThroughputResult is the synth_throughput experiment: one corpus
// sweep through the whole repair pipeline, whose headline is repairs
// per minute.
type SynthThroughputResult struct {
	Scenarios int
	Corpus    *CorpusResult
}

// AllPass requires a clean sweep: every scenario collected and
// resolved, no errors, and no re-verification contract failures.
func (r *SynthThroughputResult) AllPass() bool {
	c := r.Corpus
	return len(c.Rows) == r.Scenarios && c.Errors == 0 && c.ContractFailures == 0 &&
		c.Resolved() == len(c.Rows)
}

// RunSynthThroughput sweeps the scale's corpus with the default
// synthesis options, as `fencesynth -corpus` does.
func RunSynthThroughput(opt Options) *SynthThroughputResult {
	n := synthCorpusScenarios(opt.Scale)
	// An unjournaled sweep cannot fail.
	res, _ := RunCorpus(CorpusOptions{Scenarios: n})
	return &SynthThroughputResult{Scenarios: n, Corpus: res}
}

// Table renders the sweep.
func (r *SynthThroughputResult) Table() *stats.Table { return r.Corpus.Table() }
