package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/litmus"
	"repro/internal/litmuslang"
)

// sbFenced passes: the mfences forbid the relaxed outcome.
const sbFenced = `litmus "sb+mfence"
config { memwords 16 sbdepth 4 }
shared x @ 4, y @ 5
thread "w0" {
  storei [x], 1
  mfence
  load r0, [y]
  halt
}
thread "w1" {
  storei [y], 1
  mfence
  load r0, [x]
  halt
}
forbid P0:r0=0 & P1:r0=0
`

// sbRelaxed fails: without fences TSO reaches the forbidden outcome.
const sbRelaxed = `litmus "sb"
config { memwords 16 sbdepth 4 }
shared x @ 4, y @ 5
thread "w0" {
  storei [x], 1
  load r0, [y]
  halt
}
thread "w1" {
  storei [y], 1
  load r0, [x]
  halt
}
forbid P0:r0=0 & P1:r0=0
`

// dekkerSrc is the paper's broken Dekker attempt: a medium-size space
// (~1.8k states) with real violations — big enough for mid-run
// checkpoints at a small cadence, small enough to finish instantly.
const dekkerSrc = `litmus "dekker-nofence"
config { memwords 16 sbdepth 4 }
shared l1 @ 0, l2 @ 1, cs0 @ 2, cs1 @ 3
thread "primary" {
  storei [l1], 1
  load r0, [l2]
  bne r0, 0, @skip
  cs.enter
  cs.exit
skip:
  storei [l1], 0
  halt
}
thread "secondary" {
  storei [l2], 1
  load r0, [l1]
  bne r0, 0, @skip
  cs.enter
  cs.exit
skip:
  storei [l2], 0
  halt
}
assert mutex
`

// bigSrc is a 4-thread interleaving bomb (millions of states uncapped):
// the long-running job the timeout and drain tests need.
const bigSrc = `litmus "big"
config { memwords 16 sbdepth 4 }
shared a @ 0, b @ 1, c @ 2, d @ 3
thread "t0" {
  storei [a], 1
  load r0, [b]
  storei [a], 2
  load r1, [c]
  storei [a], 3
  load r2, [d]
  halt
}
thread "t1" {
  storei [b], 1
  load r0, [c]
  storei [b], 2
  load r1, [d]
  storei [b], 3
  load r2, [a]
  halt
}
thread "t2" {
  storei [c], 1
  load r0, [d]
  storei [c], 2
  load r1, [a]
  storei [c], 3
  load r2, [b]
  halt
}
thread "t3" {
  storei [d], 1
  load r0, [a]
  storei [d], 2
  load r1, [b]
  storei [d], 3
  load r2, [c]
  halt
}
`

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                     string
		dir                      string
		jobs, ckptEvery, retries int
		wantErr                  string // substring, "" = valid
	}{
		{"defaults", "/tmp/spool", 2, 5000, 2, ""},
		{"no dir", "", 2, 5000, 2, "-dir is required"},
		{"zero jobs", "/tmp/spool", 0, 5000, 2, "-jobs must be positive"},
		{"zero ckpt cadence", "/tmp/spool", 2, 0, 2, "-ckpt-every must be positive"},
		{"negative retries", "/tmp/spool", 2, 5000, -1, "-retries must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.dir, tc.jobs, tc.ckptEvery, tc.retries)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// startDaemon builds a daemon over cfg (fast poll and quiet log unless
// cfg sets them), applies the tweaks, and runs serve in the background;
// the returned stop func drains and waits.
func startDaemon(t *testing.T, cfg config, tweaks ...func(*daemon)) (*daemon, func()) {
	t.Helper()
	if cfg.Poll == 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tweak := range tweaks {
		tweak(d)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		d.serve(stop)
		close(done)
	}()
	var once sync.Once
	stopFn := func() {
		once.Do(func() { close(stop) })
		<-done
	}
	t.Cleanup(stopFn)
	return d, stopFn
}

// submit drops src into the daemon's spool as <name>.litmus: staged next
// to the spool and renamed in, as clients must, so the poller can never
// claim a created-but-unwritten file (which fails the job as unparsable).
func submit(t *testing.T, root, name, src string) {
	t.Helper()
	staged := filepath.Join(root, name+".litmus.staged")
	if err := os.WriteFile(staged, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(staged, filepath.Join(root, "spool", name+".litmus")); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// readVerdict loads done/<name>/verdict.json.
func readVerdict(t *testing.T, root, name string) jobVerdict {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "done", name, "verdict.json"))
	if err != nil {
		t.Fatal(err)
	}
	var v jobVerdict
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getMetrics serves one GET /metrics from the daemon's handler and
// returns the decoded payload with the raw body.
func getMetrics(t *testing.T, d *daemon) (metricsPayload, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	d.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	var m metricsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, rec.Body.String())
	}
	return m, rec.Body.String()
}

// explainRef explores src directly and returns the reference result the
// daemon's verdict must reproduce.
func explainRef(t *testing.T, src string) litmus.Result {
	t.Helper()
	c, err := litmuslang.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return litmus.Explore(c.Build, litmus.Options{Properties: c.Properties()})
}

// TestDaemonRunsSpooledJobs: the basic contract — drop jobs in spool/,
// verdicts appear in done/, pass/fail decided by the assertion.
func TestDaemonRunsSpooledJobs(t *testing.T) {
	root := t.TempDir()
	d, stop := startDaemon(t, config{Root: root, Jobs: 2, CkptEvery: 100})
	submit(t, root, "fenced", sbFenced)
	submit(t, root, "relaxed", sbRelaxed)

	waitFor(t, 30*time.Second, "both verdicts", func() bool {
		return exists(filepath.Join(root, "done", "fenced", "verdict.json")) &&
			exists(filepath.Join(root, "done", "relaxed", "verdict.json"))
	})
	stop()

	fenced := readVerdict(t, root, "fenced")
	if !fenced.Pass || fenced.Violations != 0 || fenced.Threads != 2 || fenced.States == 0 || len(fenced.Outcomes) == 0 {
		t.Errorf("fenced verdict = %+v, want pass with outcomes", fenced)
	}
	relaxed := readVerdict(t, root, "relaxed")
	if relaxed.Pass || relaxed.Violations == 0 {
		t.Errorf("relaxed verdict = %+v, want failing with violations", relaxed)
	}
	// The claimed job files travel with their verdicts; spool is empty.
	if !exists(filepath.Join(root, "done", "fenced", "job.litmus")) {
		t.Error("job.litmus missing from done/fenced")
	}
	if ents, _ := os.ReadDir(filepath.Join(root, "spool")); len(ents) != 0 {
		t.Errorf("spool not drained: %d entries left", len(ents))
	}
	if got := d.completed.Load(); got != 2 {
		t.Errorf("completed counter = %d, want 2", got)
	}
}

// TestDaemonHonoursFileModel: a job declaring config { model pso } is
// checked under PSO, as `litmus -file` checks it. Message passing is
// forbidden under TSO and allowed once stores to different addresses
// may drain out of order, so the same file flips from pass to fail.
func TestDaemonHonoursFileModel(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "mp.litmus"))
	if err != nil {
		t.Fatal(err)
	}
	mp := string(data)
	mpPSO := strings.Replace(mp, "sbdepth 4 }", "sbdepth 4 model pso }", 1)
	if mpPSO == mp {
		t.Fatal("examples/mp.litmus config line changed; update the PSO variant")
	}

	root := t.TempDir()
	_, stop := startDaemon(t, config{Root: root, Jobs: 2, CkptEvery: 100})
	submit(t, root, "mp-tso", mp)
	submit(t, root, "mp-pso", mpPSO)
	waitFor(t, 30*time.Second, "both verdicts", func() bool {
		return exists(filepath.Join(root, "done", "mp-tso", "verdict.json")) &&
			exists(filepath.Join(root, "done", "mp-pso", "verdict.json"))
	})
	stop()

	if v := readVerdict(t, root, "mp-tso"); !v.Pass || v.Violations != 0 {
		t.Errorf("TSO verdict = %+v, want pass", v)
	}
	if v := readVerdict(t, root, "mp-pso"); v.Pass || v.Violations == 0 {
		t.Errorf("PSO verdict = %+v, want failing with violations", v)
	}
}

// TestDaemonBadJobFails: an uncompilable job is failed permanently (no
// retries) with the compile error recorded.
func TestDaemonBadJobFails(t *testing.T) {
	root := t.TempDir()
	d, stop := startDaemon(t, config{Root: root, Retries: 3})
	submit(t, root, "garbage", "this is not a litmus file\n")

	errPath := filepath.Join(root, "failed", "garbage", "error.txt")
	waitFor(t, 30*time.Second, "failed/garbage", func() bool { return exists(errPath) })
	stop()

	msg, err := os.ReadFile(errPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(msg), "compile") {
		t.Errorf("error.txt = %q, want the compile error", msg)
	}
	if got := d.retried.Load(); got != 0 {
		t.Errorf("retried counter = %d: a permanent failure must not burn retries", got)
	}
	if got := d.failures.Load(); got != 1 {
		t.Errorf("failures counter = %d, want 1", got)
	}
}

// TestDaemonJobTimeout: a job that cannot finish inside -job-timeout is
// interrupted and failed with a timeout error.
func TestDaemonJobTimeout(t *testing.T) {
	root := t.TempDir()
	_, stop := startDaemon(t, config{
		Root:       root,
		JobTimeout: 300 * time.Millisecond,
		CkptEvery:  10000,
	})
	submit(t, root, "big", bigSrc)

	errPath := filepath.Join(root, "failed", "big", "error.txt")
	waitFor(t, 30*time.Second, "failed/big", func() bool { return exists(errPath) })
	stop()

	msg, err := os.ReadFile(errPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(msg), "timed out") {
		t.Errorf("error.txt = %q, want a timeout error", msg)
	}
}

// TestDaemonRetryResumesAfterCrash arms a one-shot crash right after
// the first checkpoint commit: the first attempt dies mid-exploration,
// the retry resumes from the committed snapshot through the backoff
// ladder, and the final verdict matches an uninterrupted reference.
func TestDaemonRetryResumesAfterCrash(t *testing.T) {
	ref := explainRef(t, dekkerSrc)

	root := t.TempDir()
	inj := fault.New(1)
	inj.Arm(fault.CkptCommit, fault.Plan{Prob: 1, Drop: true, MaxFires: 1})
	d, stop := startDaemon(t, config{
		Root:      root,
		Retries:   2,
		CkptEvery: 300,
		Workers:   1,
		Faults:    inj,
	})
	submit(t, root, "dekker", dekkerSrc)

	waitFor(t, 30*time.Second, "done/dekker", func() bool {
		return exists(filepath.Join(root, "done", "dekker", "verdict.json"))
	})
	stop()

	v := readVerdict(t, root, "dekker")
	if v.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (crash, then successful resume)", v.Attempts)
	}
	if !v.Resumed {
		t.Error("verdict not marked resumed")
	}
	if v.States != ref.States || v.Violations != ref.Violations || v.Deadlocks != ref.Deadlocks {
		t.Errorf("resumed verdict states/violations/deadlocks = %d/%d/%d, want %d/%d/%d",
			v.States, v.Violations, v.Deadlocks, ref.States, ref.Violations, ref.Deadlocks)
	}
	if got := d.retried.Load(); got != 1 {
		t.Errorf("retried counter = %d, want 1", got)
	}
	if got := d.resumed.Load(); got != 1 {
		t.Errorf("resumed counter = %d, want 1", got)
	}
}

// TestDaemonRetryAfterLastPeriodicCommit kills a job right after its LAST
// periodic commit. A run that drains writes no final snapshot, so this
// is the most a finished-but-unrecorded job can have on disk: the retry
// resumes from that commit, re-explores the tail without committing
// again, and the verdict says what the job's durability cost.
func TestDaemonRetryAfterLastPeriodicCommit(t *testing.T) {
	ref := explainRef(t, dekkerSrc)
	const every = 200
	periodic := uint64(ref.States / every) // commits an uninterrupted run makes
	if periodic < 2 {
		t.Fatalf("dekker space (%d states) too small for the cadence", ref.States)
	}

	root := t.TempDir()
	inj := fault.New(1)
	inj.Arm(fault.CkptCommit, fault.Plan{Prob: 1, Drop: true, MinArrivals: periodic - 1, MaxFires: 1})
	d, stop := startDaemon(t, config{
		Root:      root,
		Retries:   2,
		CkptEvery: every,
		Workers:   1,
		Faults:    inj,
	})
	submit(t, root, "dekker", dekkerSrc)
	waitFor(t, 30*time.Second, "done/dekker", func() bool {
		return exists(filepath.Join(root, "done", "dekker", "verdict.json"))
	})
	stop()

	v := readVerdict(t, root, "dekker")
	if v.Attempts != 2 || !v.Resumed {
		t.Errorf("attempts=%d resumed=%v, want a crash then a successful resume", v.Attempts, v.Resumed)
	}
	if v.States != ref.States || v.Transitions != ref.Transitions || v.Violations != ref.Violations || v.Deadlocks != ref.Deadlocks {
		t.Errorf("resumed verdict states/transitions/violations/deadlocks = %d/%d/%d/%d, want %d/%d/%d/%d",
			v.States, v.Transitions, v.Violations, v.Deadlocks, ref.States, ref.Transitions, ref.Violations, ref.Deadlocks)
	}
	if v.Snapshots != periodic {
		t.Errorf("snapshots = %d, want the first attempt's %d periodic commits and none from the retry", v.Snapshots, periodic)
	}
	if v.Keys != litmus.KeysHashed {
		t.Errorf("keys = %q, want %q", v.Keys, litmus.KeysHashed)
	}
	if got := d.resumed.Load(); got != 1 {
		t.Errorf("resumed counter = %d, want 1", got)
	}
	if exists(filepath.Join(root, "done", "dekker", "ckpt")) {
		t.Error("done/dekker still carries its checkpoint directory")
	}
}

// TestDaemonJobsUnderCadenceCheckpointNothing: a batch of jobs that each
// finish inside one -ckpt-every cadence pays nothing for durability —
// no snapshot is committed, the merged engine counters say so, every
// job ran on hashed keys — and the verdicts are the reference ones.
func TestDaemonJobsUnderCadenceCheckpointNothing(t *testing.T) {
	jobs := map[string]string{"fenced": sbFenced, "relaxed": sbRelaxed, "dekker": dekkerSrc}
	root := t.TempDir()
	d, stop := startDaemon(t, config{Root: root, Jobs: 2, CkptEvery: 5000})
	for name, src := range jobs {
		submit(t, root, name, src)
	}
	waitFor(t, 30*time.Second, "all verdicts", func() bool {
		for name := range jobs {
			if !exists(filepath.Join(root, "done", name, "verdict.json")) {
				return false
			}
		}
		return true
	})

	for name, src := range jobs {
		ref := explainRef(t, src)
		v := readVerdict(t, root, name)
		if v.States != ref.States || v.Transitions != ref.Transitions || v.Violations != ref.Violations ||
			v.Deadlocks != ref.Deadlocks || v.Pass != (ref.Violations == 0) {
			t.Errorf("%s: verdict %+v differs from the uncheckpointed reference (%d states, %d transitions, %d violations)",
				name, v, ref.States, ref.Transitions, ref.Violations)
		}
		if v.Snapshots != 0 || v.Keys != litmus.KeysHashed {
			t.Errorf("%s: snapshots=%d keys=%q, want 0 on %q", name, v.Snapshots, v.Keys, litmus.KeysHashed)
		}
	}

	m, _ := getMetrics(t, d)
	if m.Completed != uint64(len(jobs)) {
		t.Errorf("jobs_completed = %d, want %d", m.Completed, len(jobs))
	}
	if got, ok := m.Engine.Counters["checkpoint_writes"]; !ok || got != 0 {
		t.Errorf("merged checkpoint_writes = %d (present=%v), want a reported 0", got, ok)
	}
	if got := m.Engine.Counters["checkpoint_sync_ns"]; got != 0 {
		t.Errorf("merged checkpoint_sync_ns = %d with no snapshot committed", got)
	}
	stop()
}

// TestDaemonOrphanResume simulates a daemon killed mid-job: a claimed
// job sits in work/ with a committed checkpoint from a crashed run. The
// next daemon start must pick it up via Resume — not restart it — and
// deliver the reference verdict.
func TestDaemonOrphanResume(t *testing.T) {
	ref := explainRef(t, dekkerSrc)

	root := t.TempDir()
	jobDir := filepath.Join(root, "work", "dekker")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "job.litmus"), []byte(dekkerSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	// Die mid-exploration with a committed checkpoint, exactly as a
	// SIGKILL'd daemon would leave the job.
	c, err := litmuslang.CompileSource(dekkerSrc)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(2)
	inj.Arm(fault.CkptCommit, fault.Plan{Prob: 1, Drop: true, MaxFires: 1})
	dead := litmus.Explore(c.Build, litmus.Options{
		Properties: c.Properties(),
		Workers:    1,
		Checkpoint: litmus.CheckpointOptions{Dir: filepath.Join(jobDir, "ckpt"), EveryStates: 300},
		Faults:     inj,
	})
	if !dead.Crashed {
		t.Fatal("setup: crash point never fired")
	}
	if !exists(filepath.Join(jobDir, "ckpt", "checkpoint.lbmf")) {
		t.Fatal("setup: no committed checkpoint on disk")
	}

	d, stop := startDaemon(t, config{Root: root, CkptEvery: 300, Workers: 1})
	waitFor(t, 30*time.Second, "done/dekker", func() bool {
		return exists(filepath.Join(root, "done", "dekker", "verdict.json"))
	})
	stop()

	v := readVerdict(t, root, "dekker")
	if !v.Resumed {
		t.Error("orphaned job was restarted, want resumed from its checkpoint")
	}
	if v.States != ref.States || v.Violations != ref.Violations {
		t.Errorf("orphan-resumed verdict states/violations = %d/%d, want %d/%d",
			v.States, v.Violations, ref.States, ref.Violations)
	}
	if got := d.resumed.Load(); got != 1 {
		t.Errorf("resumed counter = %d, want 1", got)
	}
}

// TestDaemonDrainParksAndRestartResumes is the graceful-shutdown
// acceptance: a drain interrupts the in-flight job, which checkpoints
// and stays claimed in work/; a fresh daemon on the same spool resumes
// it to completion.
func TestDaemonDrainParksAndRestartResumes(t *testing.T) {
	root := t.TempDir()
	// The state cap keeps both legs bounded; it is part of the options
	// hash, so the restart must use the same value. It is sized for the
	// race detector, under which the engine is an order of magnitude
	// slower and the resumed leg must still fit the test budget.
	const maxStates = 60000
	cfg := config{Root: root, CkptEvery: 5000, MaxStates: maxStates, Workers: 2}

	_, stop := startDaemon(t, cfg)
	submit(t, root, "big", bigSrc)
	waitFor(t, 30*time.Second, "job claim", func() bool {
		return exists(filepath.Join(root, "work", "big", "job.litmus"))
	})
	// Drain once the first periodic checkpoint has committed (5,000 of
	// the 60,000 states in): the job is provably mid-exploration, at any
	// engine speed, and the interrupt barrier writes a final checkpoint.
	waitFor(t, 30*time.Second, "first checkpoint", func() bool {
		return exists(filepath.Join(root, "work", "big", "ckpt", "checkpoint.lbmf"))
	})
	stop()

	if exists(filepath.Join(root, "done", "big")) {
		t.Fatal("job finished before the drain; the test needs it in flight")
	}
	if !exists(filepath.Join(root, "work", "big", "job.litmus")) {
		t.Fatal("drained job not parked in work/")
	}
	if !exists(filepath.Join(root, "work", "big", "ckpt", "checkpoint.lbmf")) {
		t.Fatal("drained job has no committed checkpoint")
	}

	d2, stop2 := startDaemon(t, cfg)
	waitFor(t, 60*time.Second, "done/big after restart", func() bool {
		return exists(filepath.Join(root, "done", "big", "verdict.json"))
	})
	stop2()

	v := readVerdict(t, root, "big")
	if !v.Resumed {
		t.Error("restarted job did not resume from the drain checkpoint")
	}
	if v.States != maxStates {
		t.Errorf("resumed run explored %d states, want the %d cap", v.States, maxStates)
	}
	if got := d2.resumed.Load(); got != 1 {
		t.Errorf("resumed counter = %d, want 1", got)
	}
}

// spoolNames lists what is waiting in spool/.
func spoolNames(t *testing.T, root string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(root, "spool"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestDaemonDrainLeavesBacklogInSpool: a drain parks what is running and
// claims nothing more. With one slot and four long jobs submitted, the
// stop that follows the first claim must find the other three still in
// spool/ — unclaimed, for whichever daemon serves the spool next — not
// run them to completion first.
func TestDaemonDrainLeavesBacklogInSpool(t *testing.T) {
	root := t.TempDir()
	// All four are waiting when the daemon makes its first listing.
	if err := os.Mkdir(filepath.Join(root, "spool"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		submit(t, root, name, bigSrc)
	}
	d, stop := startDaemon(t, config{Root: root, Jobs: 1, CkptEvery: 10000, MaxStates: 400000})
	waitFor(t, 30*time.Second, "first claim", func() bool {
		return exists(filepath.Join(root, "work", "a", "job.litmus"))
	})
	stop()

	if got := strings.Join(spoolNames(t, root), " "); got != "b.litmus c.litmus d.litmus" {
		t.Errorf("spool after drain holds [%s], want b, c and d unclaimed", got)
	}
	if !exists(filepath.Join(root, "work", "a", "job.litmus")) {
		t.Error("in-flight job a not parked in work/")
	}
	if ents, _ := os.ReadDir(filepath.Join(root, "done")); len(ents) != 0 {
		t.Errorf("%d job(s) ran to done/ during the drain", len(ents))
	}
	if got := d.claimed.Load(); got != 1 {
		t.Errorf("claimed counter = %d, want 1", got)
	}
}

// TestDaemonResubmitWaitsForRunningJob: a name submitted again while its
// first job is still running must not touch that job. The second file
// waits in spool/ until the first is terminal, then runs and replaces
// the result: both verdicts are produced, in submission order, and
// nothing fails.
func TestDaemonResubmitWaitsForRunningJob(t *testing.T) {
	ref := explainRef(t, sbFenced)
	const firstCap = 60000

	root := t.TempDir()
	var logs strings.Builder // log.Logger serialises the writes; read after stop()
	d, stop := startDaemon(t, config{Root: root, Jobs: 2, CkptEvery: 10000, MaxStates: firstCap,
		Log: log.New(&logs, "", 0)})
	submit(t, root, "big", bigSrc)
	waitFor(t, 30*time.Second, "first claim", func() bool {
		return exists(filepath.Join(root, "work", "big", "job.litmus"))
	})
	submit(t, root, "big", sbFenced)
	waitFor(t, 60*time.Second, "both jobs terminal", func() bool {
		return d.completed.Load()+d.failures.Load() >= 2
	})
	stop()

	if c, f := d.completed.Load(), d.failures.Load(); c != 2 || f != 0 {
		t.Errorf("completed/failed = %d/%d, want 2/0", c, f)
	}
	var verdicts []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.HasPrefix(line, "job big: ") {
			verdicts = append(verdicts, line)
		}
	}
	if len(verdicts) != 2 ||
		!strings.Contains(verdicts[0], fmt.Sprintf("(%d states", firstCap)) ||
		!strings.Contains(verdicts[1], fmt.Sprintf("(%d states", ref.States)) {
		t.Errorf("verdict log lines = %q, want the %d-state job then the %d-state resubmission",
			verdicts, firstCap, ref.States)
	}
	if v := readVerdict(t, root, "big"); v.States != ref.States || !v.Pass {
		t.Errorf("done/big holds %+v, want the resubmitted job's passing %d-state verdict", v, ref.States)
	}
	if exists(filepath.Join(root, "failed", "big")) {
		t.Error("failed/big exists")
	}
}

// TestDaemonPollOnlyFallback pins the path a platform without inotify
// runs: no wake channel, so the poll ticker alone finds a job submitted
// after the first listing.
func TestDaemonPollOnlyFallback(t *testing.T) {
	root := t.TempDir()
	d, stop := startDaemon(t, config{Root: root, Poll: 10 * time.Millisecond, CkptEvery: 100},
		func(d *daemon) {
			d.watch = func(string) (<-chan struct{}, func()) { return nil, func() {} }
		})
	waitFor(t, 30*time.Second, "first spool listing", func() bool { return d.scans.Load() > 0 })
	submit(t, root, "fenced", sbFenced)
	waitFor(t, 30*time.Second, "done/fenced", func() bool {
		return exists(filepath.Join(root, "done", "fenced", "verdict.json"))
	})
	stop()

	if v := readVerdict(t, root, "fenced"); !v.Pass {
		t.Errorf("verdict = %+v, want pass", v)
	}
	if got := d.wakeups.Load(); got != 0 {
		t.Errorf("spool_wakeups = %d on the poll-only path", got)
	}
}

// TestDaemonHTTPEndpoints exercises /healthz, /metrics and a pprof
// endpoint directly against the handler.
func TestDaemonHTTPEndpoints(t *testing.T) {
	root := t.TempDir()
	d, stop := startDaemon(t, config{Root: root, CkptEvery: 100})
	submit(t, root, "fenced", sbFenced)
	waitFor(t, 30*time.Second, "done/fenced", func() bool {
		return exists(filepath.Join(root, "done", "fenced", "verdict.json"))
	})

	h := d.handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}

	m, body := getMetrics(t, d)
	if m.Claimed != 1 || m.Completed != 1 || m.Draining {
		t.Errorf("metrics = %+v, want 1 claimed, 1 completed, not draining", m)
	}
	if len(m.Engine.Counters) == 0 {
		t.Error("metrics carry no merged engine counters")
	}
	// The job was found by a listing, whichever event prompted it; the
	// wakeup count is zero on a poll-only platform.
	if (m.Watch != "inotify" && m.Watch != "poll") || m.Scans == 0 || (m.Watch == "poll" && m.Wakeups != 0) {
		t.Errorf("spool_watch/spool_wakeups/spool_scans = %q/%d/%d", m.Watch, m.Wakeups, m.Scans)
	}
	for _, field := range []string{`"spool_watch"`, `"spool_wakeups"`, `"spool_scans"`} {
		if !strings.Contains(body, field) {
			t.Errorf("/metrics lacks %s", field)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", rec.Code)
	}

	stop() // drain flips /healthz to 503
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Errorf("/healthz after drain = %d, want 503", rec.Code)
	}
}

// TestDaemonDrainBroadcast checks registerInterrupt: flags registered
// before the drain are flipped by it, flags registered after start out
// interrupted.
func TestDaemonDrainBroadcast(t *testing.T) {
	d, err := newDaemon(config{Root: t.TempDir(), Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	var before, after atomic.Bool
	unreg := d.registerInterrupt(&before)
	d.drainAndWait()
	if !before.Load() {
		t.Error("drain did not interrupt a registered job")
	}
	unreg()
	d.registerInterrupt(&after)
	if !after.Load() {
		t.Error("job registered after drain not immediately interrupted")
	}
}
