package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/litmuslang"
)

// daemonSetupReps: a daemon set-up is a primed `go build`, job
// generation and one daemon start, a few hundred milliseconds.
const daemonSetupReps = 3

// clientPoll is how often the benchmark's client looks into done/.
const clientPoll = 5 * time.Millisecond

// submitDelay is how long after the daemon came up a batch is
// submitted. litmusd scans its spool when it starts and then every
// -poll (200 ms); submitting at a fixed point of that cycle keeps the
// wait for the next scan in the measurement (about 150 ms of every
// batch) without adding up to one poll interval of rep-to-rep jitter.
const submitDelay = 50 * time.Millisecond

// batchTimeout fails whatever a batch has not delivered by then.
const batchTimeout = 60 * time.Second

// jobVerdict is the part of litmusd's verdict.json a job is held to,
// plus the service time the daemon reports.
type jobVerdict struct {
	States      int   `json:"states"`
	Transitions int   `json:"transitions"`
	Violations  int   `json:"violations"`
	Deadlocks   int   `json:"deadlocks"`
	Pass        bool  `json:"pass"`
	ElapsedMs   int64 `json:"elapsed_ms"`
}

// same compares what must match; ElapsedMs is a measurement.
func (v jobVerdict) same(o jobVerdict) bool {
	v.ElapsedMs, o.ElapsedMs = 0, 0
	return v == o
}

type job struct {
	id     string // what the source is: examples/<file> or generated seed
	source string
	ref    jobVerdict
}

// daemonBatch is file -> verdict through the real job runner: a built
// cmd/litmusd child, one batch of job files renamed into its spool at
// once per rep, every verdict.json held to an in-process uncheckpointed
// litmus.Explore of the same source.
type daemonBatch struct {
	bin        string
	examples   []job
	candidates []job // generated sources, before the state cap
	genSeeds   int

	jobs  []job // the batch: examples + the first genJobs candidates under the cap
	order []int // submission position -> index into jobs, drawn from the seed

	// The reference pass over the batch, in-process: its allocation is
	// the workload's alloc_bytes_per_state (the child's heap cannot be
	// read from outside), its exploration time the base of
	// litmusd.non_explore_share.
	refAlloc       uint64
	refStates      int
	refTransitions int
	exploreSeconds float64

	firstVerdictMs []float64
	serviceMs      []float64 // the last batch's per-job elapsed_ms
}

func newDaemonBatch() *daemonBatch { return &daemonBatch{} }

func (w *daemonBatch) name() string   { return "daemon-batch" }
func (w *daemonBatch) setupReps() int { return daemonSetupReps }

// genParams is the daemon's generated job mix: the differential
// generator's defaults on three threads.
func genParams() litmusgen.Params {
	p := litmusgen.DefaultParams()
	p.Threads = 3
	return p
}

func (w *daemonBatch) setup(e *env) error {
	w.bin = filepath.Join(e.root, ".bench_build", "litmusd")
	build := exec.Command("go", "build", "-o", w.bin, "./cmd/litmusd")
	build.Dir = e.root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/litmusd: %v\n%s", err, out)
	}
	if err := w.generate(e); err != nil {
		return err
	}
	root, err := os.MkdirTemp(e.tmp, "spool-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	d, err := startDaemon(w.bin, root)
	if err != nil {
		return err
	}
	return d.stop()
}

// generate reads the example jobs and generates the candidate sources.
func (w *daemonBatch) generate(e *env) error {
	files, err := filepath.Glob(filepath.Join(e.root, "examples", "*.litmus"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	if len(files) < e.scale.examples {
		return fmt.Errorf("examples/ holds %d .litmus files, need %d", len(files), e.scale.examples)
	}
	w.examples = w.examples[:0]
	for _, f := range files[:e.scale.examples] {
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		w.examples = append(w.examples, job{id: "examples/" + filepath.Base(f), source: string(src)})
	}
	// About one generated source in seven exceeds the state cap.
	w.genSeeds = e.scale.genJobs*3/2 + 8
	w.candidates = w.candidates[:0]
	for seed := int64(1); seed <= int64(w.genSeeds); seed++ {
		w.candidates = append(w.candidates, job{id: "generated/seed-" + strconv.FormatInt(seed, 10),
			source: litmusgen.Generate(seed, genParams())})
	}
	return nil
}

// reference explores one source in-process, uncheckpointed, on one
// worker. capStates > 0 bounds the exploration; ok is false when the
// source exceeds it.
func reference(j *job, capStates int) (ok bool, seconds float64, alloc uint64, err error) {
	var s repSample
	var r litmus.Result
	var cerr error
	measured(&s, func() {
		c, err := litmuslang.CompileSource(j.source)
		if err != nil {
			cerr = err
			return
		}
		opts := litmus.Options{Properties: c.Properties(), Workers: 1}
		if capStates > 0 {
			opts.MaxStates = capStates + 1
		}
		r = litmus.Explore(c.Build, opts)
	})
	if cerr != nil {
		return false, 0, 0, fmt.Errorf("%s: %w", j.id, cerr)
	}
	if r.Truncated {
		return false, 0, 0, nil
	}
	j.ref = jobVerdict{States: r.States, Transitions: r.Transitions, Violations: r.Violations,
		Deadlocks: r.Deadlocks, Pass: r.Violations == 0}
	return true, s.wall.Seconds(), s.allocBytes, nil
}

// prepare computes every job's reference verdict, selects the batch,
// checks it against golden.json and draws the submission order.
func (w *daemonBatch) prepare(e *env) error {
	w.jobs = w.jobs[:0]
	w.refAlloc, w.refStates, w.refTransitions, w.exploreSeconds = 0, 0, 0, 0
	w.firstVerdictMs = nil
	take := func(j job, capStates int) (bool, error) {
		ok, seconds, alloc, err := reference(&j, capStates)
		if err != nil || !ok {
			return false, err
		}
		w.jobs = append(w.jobs, j)
		w.refAlloc += alloc
		w.refStates += j.ref.States
		w.refTransitions += j.ref.Transitions
		w.exploreSeconds += seconds
		return true, nil
	}
	for _, j := range w.examples {
		if ok, err := take(j, 0); err != nil || !ok {
			return fmt.Errorf("example %s has no reference verdict (truncated or %v)", j.id, err)
		}
	}
	generated := 0
	for _, j := range w.candidates {
		if generated == e.scale.genJobs {
			break
		}
		ok, err := take(j, e.scale.jobStateCap)
		if err != nil {
			return err
		}
		if ok {
			generated++
		}
	}
	if generated < e.scale.genJobs {
		return fmt.Errorf("only %d of %d generated sources stay under %d states", generated, len(w.candidates), e.scale.jobStateCap)
	}
	w.order = rand.New(rand.NewSource(e.seed)).Perm(len(w.jobs))
	return nil
}

// verdictHash pins the batch: which sources (examples by name, then
// generated by seed), and each one's verdict.
func (w *daemonBatch) verdictHash() string {
	var lines []string
	for _, j := range w.jobs {
		lines = append(lines, fmt.Sprintf("%s %+v", j.id, j.ref))
	}
	return hashLines(lines)
}

// daemonProc is a running litmusd child.
type daemonProc struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait has returned; err is set before
	err    error
}

func startDaemon(bin, root string) (*daemonProc, error) {
	logf, err := os.Create(filepath.Join(root, "litmusd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-dir", root, "-jobs", strconv.Itoa(workers), "-workers", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting litmusd: %w", err)
	}
	d := &daemonProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	onExit(d.kill)
	// The daemon logs "watching <dir>" once its directories exist and its
	// SIGTERM handler is installed; a SIGTERM sent any earlier would kill
	// it instead of draining it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if log, _ := os.ReadFile(logf.Name()); bytes.Contains(log, []byte("watching ")) {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("litmusd exited before serving: %v", d.err)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("litmusd did not start serving in 10 s")
		}
	}
}

// kill ends the child now and waits for it; safe to call repeatedly.
func (d *daemonProc) kill() {
	d.cmd.Process.Kill() // an error means it has already ended
	<-d.exited
}

// stop drains the daemon with SIGTERM, as its operator would, and waits
// for it to end.
func (d *daemonProc) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.err
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("litmusd ignored SIGTERM for 10 s; killed")
	}
}

func countDirs(dir string) int {
	ents, _ := os.ReadDir(dir)
	return len(ents)
}

func (w *daemonBatch) rep(e *env, parent int) (repSample, error) {
	n := len(w.jobs)
	s := repSample{attempted: n, states: w.refStates, transitions: w.refTransitions, allocBytes: w.refAlloc}
	root, err := os.MkdirTemp(e.tmp, "spool-")
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(root)
	stage := filepath.Join(root, "stage")
	if err := os.Mkdir(stage, 0o755); err != nil {
		return s, err
	}
	names := make([]string, n)
	for pos, idx := range w.order {
		names[pos] = fmt.Sprintf("job-%03d", pos)
		if err := os.WriteFile(filepath.Join(stage, names[pos]+".litmus"), []byte(w.jobs[idx].source), 0o644); err != nil {
			return s, err
		}
	}
	d, err := startDaemon(w.bin, root)
	if err != nil {
		return s, err
	}
	defer d.kill()
	time.Sleep(submitDelay)

	// Timed: from the first rename into spool/ to the last verdict seen.
	done, failed := filepath.Join(root, "done"), filepath.Join(root, "failed")
	batch := e.tr.begin("litmusd.batch", parent)
	start := time.Now()
	for _, name := range names {
		if err := os.Rename(filepath.Join(stage, name+".litmus"), filepath.Join(root, "spool", name+".litmus")); err != nil {
			return s, err
		}
	}
	var first time.Duration
	for {
		finished := countDirs(done)
		now := time.Since(start)
		if finished > 0 && first == 0 {
			first = now
		}
		if finished+countDirs(failed) >= n || now > batchTimeout {
			s.wall = now
			break
		}
		select {
		case <-d.exited:
			return s, fmt.Errorf("litmusd exited mid-batch with %d of %d jobs delivered: %v", finished, n, d.err)
		case <-time.After(clientPoll):
		}
	}
	e.tr.end(batch, n)
	if err := d.stop(); err != nil {
		return s, err
	}

	w.firstVerdictMs = append(w.firstVerdictMs, float64(first.Microseconds())/1e3)
	w.serviceMs = w.serviceMs[:0]
	for pos, idx := range w.order {
		var got jobVerdict
		data, err := os.ReadFile(filepath.Join(done, names[pos], "verdict.json"))
		if err == nil {
			err = json.Unmarshal(data, &got)
		}
		if want := w.jobs[idx].ref; err != nil || !got.same(want) {
			mismatch("daemon-batch: %s (%s): verdict %+v (%v), in-process reference %+v", names[pos], w.jobs[idx].id, got, err, want)
			s.failed++
			continue
		}
		w.serviceMs = append(w.serviceMs, float64(got.ElapsedMs))
	}
	if pins, hash := e.pins(), w.verdictHash(); pins.Jobs != n || pins.JobVerdicts != hash {
		mismatch("daemon-batch: batch of %d jobs, verdicts %s; golden.json pins %d jobs, %s", n, hash, pins.Jobs, pins.JobVerdicts)
		s.failed = n
	}
	return s, nil
}

// layers is the daemon-batch traced run: what the batch spent outside
// exploration, the front end's and the generator's per-file cost, and
// what checkpointing costs a job.
func (w *daemonBatch) layers(e *env, parent int, reps []repSample, m *metrics) error {
	wall := medianWall(reps)
	n := len(w.jobs)
	m.set("litmusd.jobs_per_sec", ratio(float64(n), wall))
	m.set("litmusd.job_service_ms_p50", quantile(w.serviceMs, 0.5))
	m.set("litmusd.job_service_ms_p90", quantile(w.serviceMs, 0.9))
	m.set("litmusd.first_verdict_ms", median(w.firstVerdictMs))
	m.set("litmusd.non_explore_share", 1-ratio(w.exploreSeconds, workers*wall))
	m.set("litmus.states", float64(w.refStates))
	m.set("litmus.transitions", float64(w.refTransitions))
	m.set("litmus.transitions_per_state", ratio(float64(w.refTransitions), float64(w.refStates)))
	m.set("litmus.states_per_sec", ratio(float64(w.refStates), wall))

	files := make([]*litmuslang.File, n)
	var perr error
	m.set("litmuslang.parse_us_per_file", timeBatch(e, parent, "litmuslang.Parse", n, func() time.Duration {
		start := time.Now()
		for i, j := range w.jobs {
			if files[i], perr = litmuslang.Parse(j.source); perr != nil {
				break
			}
		}
		return time.Since(start)
	})/1e3)
	if perr != nil {
		return perr
	}
	m.set("litmuslang.compile_us_per_file", timeBatch(e, parent, "litmuslang.Compile", n, func() time.Duration {
		start := time.Now()
		for _, f := range files {
			if _, perr = litmuslang.Compile(f); perr != nil {
				break
			}
		}
		return time.Since(start)
	})/1e3)
	if perr != nil {
		return perr
	}
	m.set("litmusgen.generate_us_per_scenario", timeBatch(e, parent, "litmusgen.Generate", w.genSeeds, func() time.Duration {
		start := time.Now()
		for seed := int64(1); seed <= int64(w.genSeeds); seed++ {
			sink += len(litmusgen.Generate(seed, genParams()))
		}
		return time.Since(start)
	})/1e3)
	startup, err := exploreStartupUs(e, parent)
	if err != nil {
		return err
	}
	m.set("litmus.explore_startup_us", startup)
	return w.checkpointProbe(e, parent, m)
}

// checkpointProbe explores one large generated job three ways on one
// worker, as a daemon job slot runs it: plain, with the collapse
// compression a checkpoint implies, and checkpointed every 5,000 states
// like litmusd's default. The first and last give the overhead share;
// the last two isolate the barrier + fsync + rename cost per commit.
func (w *daemonBatch) checkpointProbe(e *env, parent int, m *metrics) error {
	c, err := litmuslang.CompileSource(litmusgen.Generate(e.scale.ckptJobSeed, genParams()))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.tmp, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	commits := 0
	explore := func(label string, o litmus.Options) litmus.Result {
		o.Properties, o.Workers = c.Properties(), 1
		runtime.GC()
		id := e.tr.begin("litmus.Explore["+label+"]", parent)
		r := litmus.Explore(c.Build, o)
		e.tr.end(id, 1)
		return r
	}
	plain := explore("job", litmus.Options{})
	collapsed := explore("job,collapse", litmus.Options{Collapse: true})
	ckpt := explore("job,checkpoint", litmus.Options{Checkpoint: litmus.CheckpointOptions{
		Dir: dir, EveryStates: 5000, OnCommit: func(int) { commits++ }}})
	if plain.States != ckpt.States || plain.States != collapsed.States {
		return fmt.Errorf("checkpoint probe: %d states plain, %d collapsed, %d checkpointed", plain.States, collapsed.States, ckpt.States)
	}
	m.set("litmus.checkpoint_overhead_share", ratio(ckpt.Elapsed.Seconds(), plain.Elapsed.Seconds())-1)
	m.set("litmus.checkpoint_commit_ms", ratio((ckpt.Elapsed-collapsed.Elapsed).Seconds()*1e3, float64(commits)))
	return nil
}
