// litmusd is a long-running, kill-safe job runner for litmus files: it
// watches a spool directory for *.litmus jobs, explores each under a
// bounded worker pool with periodic checkpoints, and survives both its
// own death (orphaned jobs resume from their last committed checkpoint
// at the next start) and individual job misbehaviour (per-job timeouts,
// backoff-retried transient failures).
//
// Spool layout under -dir:
//
//	spool/<name>.litmus   submitted jobs (rename files in here)
//	work/<name>/          claimed jobs: job.litmus + ckpt/ + logs
//	done/<name>/          completed jobs: job.litmus + verdict.json
//	failed/<name>/        failed jobs: job.litmus + error.txt
//
// Submitting is a rename into spool/ (stage the file on the same
// filesystem first, so it is never seen half-written), and on Linux the
// rename is itself the wake event: an inotify watch on spool/ has the
// daemon claiming within milliseconds. -poll is the safety net — a
// periodic re-listing that catches a missed event and is the only
// trigger where inotify is unavailable.
//
// Claiming is a rename from spool/ into a newly made work/<name>/, so a
// job is processed at most once, and it happens only when a job slot is
// free: whatever is not running is still in spool/, which is where a
// drain leaves it. While work/<name>/ exists, a resubmission of the
// same name waits in spool/ until that job is terminal, then runs and
// replaces the earlier result. Killing the daemon between the claim and
// the verdict leaves the job in work/, where the next start picks it up
// — resuming the exploration from its checkpoint when one committed,
// restarting it otherwise.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/litmus"
	"repro/internal/litmuslang"
	"repro/internal/obs"
	"repro/internal/signals"
)

// config carries the daemon's resolved settings; zero fields take the
// defaults applied in newDaemon.
type config struct {
	// Root is the spool root; spool/work/done/failed live under it.
	Root string
	// Poll is the spool re-listing interval: the safety net behind the
	// submit-event watch, the only trigger without one.
	Poll time.Duration
	// Jobs bounds how many jobs run concurrently.
	Jobs int
	// Workers is the per-job exploration worker count (0 = GOMAXPROCS).
	Workers int
	// JobTimeout interrupts a job's exploration after this long and
	// fails the job (0 = no limit).
	JobTimeout time.Duration
	// CkptEvery checkpoints a running job every N claimed states.
	CkptEvery int
	// Retries is how many times a transiently-failed job is retried
	// (resuming from its checkpoint) before it is failed for good.
	Retries int
	// MaxStates bounds each job's exploration (0 = engine default).
	MaxStates int
	// Faults is the chaos schedule threaded into every job's engine
	// options; tests use it to crash explorations at checkpoint
	// boundaries. Nil in production.
	Faults *fault.Injector
	// Log receives the daemon's operational log lines.
	Log *log.Logger
}

// jobVerdict is the durable result written to done/<name>/verdict.json.
type jobVerdict struct {
	Name        string         `json:"name"`
	Threads     int            `json:"threads"`
	States      int            `json:"states"`
	Transitions int            `json:"transitions"`
	Outcomes    map[string]int `json:"outcomes"`
	Deadlocks   int            `json:"deadlocks"`
	Violations  int            `json:"violations"`
	Property    string         `json:"property,omitempty"`
	Pass        bool           `json:"pass"`
	Resumed     bool           `json:"resumed"`
	Attempts    int            `json:"attempts"`
	ElapsedMs   int64          `json:"elapsed_ms"`
	// Keys is what the visited set was keyed on (litmus.KeysHashed /
	// KeysCollapsed; a resumed job keeps its checkpoint's). Snapshots is
	// what durability cost the job: checkpoints committed over all its
	// attempts — 0 for a job that finished inside one cadence.
	Keys      string `json:"keys"`
	Snapshots uint64 `json:"snapshots"`
}

// metricsPayload is the /metrics JSON: daemon-level job counters plus
// the merged engine observability of every exploration run so far.
type metricsPayload struct {
	Claimed   uint64       `json:"jobs_claimed"`
	Completed uint64       `json:"jobs_completed"`
	Failed    uint64       `json:"jobs_failed"`
	Retried   uint64       `json:"jobs_retried"`
	Resumed   uint64       `json:"jobs_resumed"`
	Active    int64        `json:"jobs_active"`
	Draining  bool         `json:"draining"`
	Watch     string       `json:"spool_watch"`   // "inotify" or "poll"
	Wakeups   uint64       `json:"spool_wakeups"` // submit events received
	Scans     uint64       `json:"spool_scans"`   // spool/ listings read
	Engine    obs.Snapshot `json:"engine"`
}

type daemon struct {
	cfg                       config
	spool, work, done, failed string

	// watch opens the spool's submit-event source (watchSpool's
	// contract); tests substitute it to pin either wake path.
	watch func(dir string) (<-chan struct{}, func())

	drain atomic.Bool   // set once: stop claiming, interrupt in-flight jobs
	freed chan struct{} // 1-buffered token: a job goroutine ended, a slot is free
	wg    sync.WaitGroup

	claimed   atomic.Uint64
	completed atomic.Uint64
	failures  atomic.Uint64
	retried   atomic.Uint64
	resumed   atomic.Uint64
	active    atomic.Int64 // running jobs; serve starts one only below cfg.Jobs
	wakeups   atomic.Uint64
	scans     atomic.Uint64

	mu        sync.Mutex
	intrs     map[*atomic.Bool]struct{} // in-flight jobs' interrupt flags
	engine    obs.Snapshot              // merged per-job engine obs
	watchMode string                    // "inotify" or "poll", once serve has opened the watch
}

func newDaemon(cfg config) (*daemon, error) {
	if cfg.Root == "" {
		return nil, errors.New("litmusd: spool root required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.CkptEvery <= 0 {
		cfg.CkptEvery = 5000
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Log == nil {
		cfg.Log = log.New(os.Stderr, "litmusd: ", log.LstdFlags)
	}
	d := &daemon{
		cfg:    cfg,
		spool:  filepath.Join(cfg.Root, "spool"),
		work:   filepath.Join(cfg.Root, "work"),
		done:   filepath.Join(cfg.Root, "done"),
		failed: filepath.Join(cfg.Root, "failed"),
		watch:  watchSpool,
		freed:  make(chan struct{}, 1),
		intrs:  make(map[*atomic.Bool]struct{}),
	}
	for _, dir := range []string{d.spool, d.work, d.done, d.failed} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("litmusd: creating %s: %w", dir, err)
		}
	}
	return d, nil
}

// backlog is what serve knows to be waiting; only its goroutine touches it.
type backlog struct {
	orphans []string // jobs a previous daemon left in work/; they run first
	spool   []string // sorted spool file names of the last listing, not yet claimed
	stale   bool     // spool/ may hold more than the listing: re-read before claiming
}

// serve is the daemon's main loop: fill the free job slots — orphans
// first, then the spool in name order — whenever something was
// submitted (wake), a job ended (freed) or the poll ticker fired, until
// stop closes, then drain. It returns once every in-flight job has
// stopped (completed, failed, or checkpointed-and-parked).
func (d *daemon) serve(stop <-chan struct{}) {
	// The watch is registered before the first listing, so a file renamed
	// in between is either listed or announced.
	wake, unwatch := d.watch(d.spool)
	defer unwatch()
	mode, label := "poll", "poll-only"
	if wake != nil {
		mode, label = "inotify", "inotify"
	}
	d.mu.Lock()
	d.watchMode = mode
	d.mu.Unlock()
	d.cfg.Log.Printf("watching %s (%s, jobs=%d, ckpt-every=%d, retries=%d)",
		d.cfg.Root, label, d.cfg.Jobs, d.cfg.CkptEvery, d.cfg.Retries)

	b := backlog{orphans: d.orphans(), stale: true}
	if n := len(b.orphans); n > 0 {
		d.cfg.Log.Printf("recovered %d orphaned job(s) from work/", n)
	}
	tick := time.NewTicker(d.cfg.Poll)
	defer tick.Stop()
	for {
		// stop is looked at alone first: once it has closed, no other
		// ready event gets one more job claimed.
		select {
		case <-stop:
			d.drainAndWait()
			return
		default:
			d.fill(&b)
		}
		select {
		case <-stop:
		case <-wake:
			d.wakeups.Add(1)
			b.stale = true
		case <-tick.C:
			b.stale = true
		case <-d.freed:
			// The kept listing serves: a finished job costs no directory read.
		}
	}
}

// orphans lists every job a previous daemon left in work/: those with a
// committed checkpoint will resume mid-exploration, those without one
// restart from scratch. Empty claim debris is removed.
func (d *daemon) orphans() []string {
	ents, err := os.ReadDir(d.work)
	if err != nil {
		d.cfg.Log.Printf("scanning work/: %v", err)
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		jobDir := filepath.Join(d.work, e.Name())
		if _, err := os.Stat(filepath.Join(jobDir, "job.litmus")); err != nil {
			os.Remove(jobDir) // claim debris: dir created, rename never happened
			continue
		}
		names = append(names, e.Name())
	}
	return names
}

// fill starts jobs until the slots or the backlog run out. A job is
// claimed only into a free slot, so the loop never blocks on the pool
// and everything not running is still in spool/ (an orphan: parked in
// work/) when a drain arrives.
func (d *daemon) fill(b *backlog) {
	free := func() bool { return d.active.Load() < int64(d.cfg.Jobs) }
	for len(b.orphans) > 0 && free() {
		d.start(b.orphans[0])
		b.orphans = b.orphans[1:]
	}
	if !free() {
		return
	}
	if b.stale {
		b.spool, b.stale = d.listSpool(), false
	}
	kept := b.spool[:0]
	for i, fname := range b.spool {
		if !free() {
			kept = append(kept, b.spool[i:]...)
			break
		}
		name := strings.TrimSuffix(fname, ".litmus")
		switch err := d.claim(fname, name); {
		case err == nil:
			d.start(name)
		case errors.Is(err, fs.ErrExist):
			kept = append(kept, fname) // taken on the freed turn after the running job of this name ends
		}
	}
	b.spool = kept
}

// listSpool reads the ready spool jobs, in name order.
func (d *daemon) listSpool() []string {
	d.scans.Add(1)
	ents, err := os.ReadDir(d.spool)
	if err != nil {
		d.cfg.Log.Printf("scanning spool/: %v", err)
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".litmus") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// claim moves spool/<fname> into a new work/<name>/ as job.litmus. The
// directory is made exclusively: while an earlier submission of the name
// is still in work/ the error is fs.ErrExist and the file stays in
// spool/ — renaming over a running job's job.litmus would destroy it
// and put two explorations on one ckpt/.
func (d *daemon) claim(fname, name string) error {
	jobDir := filepath.Join(d.work, name)
	if err := os.Mkdir(jobDir, 0o755); err != nil {
		if !errors.Is(err, fs.ErrExist) {
			d.cfg.Log.Printf("claiming %s: %v", name, err)
		}
		return err
	}
	if err := os.Rename(filepath.Join(d.spool, fname), filepath.Join(jobDir, "job.litmus")); err != nil {
		os.Remove(jobDir) // another claimer won, or the file vanished
		return err
	}
	return nil
}

// start runs the job in work/<name> on its own goroutine; the caller
// has seen a free slot. The goroutine ends by giving the slot back and
// leaving a token for serve.
func (d *daemon) start(name string) {
	d.claimed.Add(1)
	d.active.Add(1)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.runJob(name)
		d.active.Add(-1)
		select {
		case d.freed <- struct{}{}:
		default:
		}
	}()
}

// drainAndWait stops new claims, interrupts every in-flight job (each
// checkpoints at its next barrier and parks in work/ for the next
// start), and waits for the pool to empty.
func (d *daemon) drainAndWait() {
	d.drain.Store(true)
	d.mu.Lock()
	for b := range d.intrs {
		b.Store(true)
	}
	d.mu.Unlock()
	d.wg.Wait()
}

// registerInterrupt tracks a job's interrupt flag for the drain
// broadcast; the returned func unregisters it.
func (d *daemon) registerInterrupt(b *atomic.Bool) func() {
	d.mu.Lock()
	d.intrs[b] = struct{}{}
	d.mu.Unlock()
	if d.drain.Load() {
		b.Store(true)
	}
	return func() {
		d.mu.Lock()
		delete(d.intrs, b)
		d.mu.Unlock()
	}
}

// errPermanent wraps failures that no retry can fix (unreadable or
// uncompilable job files); everything else is treated as transient.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// runJob drives one claimed job to a terminal state: done/, failed/, or
// (on drain) parked in work/ behind its checkpoint. Transient failures
// — an exploration that died mid-run — are retried up to cfg.Retries
// times through the signals backoff ladder, each retry resuming from
// the job's last committed checkpoint rather than restarting.
func (d *daemon) runJob(name string) {
	jobDir := filepath.Join(d.work, name)
	ladder := signals.NewBackoff(signals.WaitPolicy{
		SpinIters:  1,
		YieldIters: 1,
		ParkFloor:  time.Millisecond,
		ParkCeil:   100 * time.Millisecond,
	})
	attempts := 0
	everResumed := false
	var snapshots uint64
	for {
		attempts++
		start := time.Now()
		res, c, didResume, timedOut, err := d.attempt(jobDir)
		everResumed = everResumed || didResume
		snapshots += res.Obs.Counters["checkpoint_writes"]
		switch {
		case err != nil:
			var perm errPermanent
			if errors.As(err, &perm) || attempts > d.cfg.Retries+1 {
				d.fail(name, jobDir, fmt.Errorf("attempt %d: %w", attempts, err))
				return
			}
			d.retried.Add(1)
			d.cfg.Log.Printf("job %s attempt %d failed transiently (%v); backing off and resuming", name, attempts, err)
			for !ladder.Pause() {
				// escalate through spin/yield until the ladder parks:
				// each retry sleeps, with capped exponential growth
			}
		case timedOut:
			d.fail(name, jobDir, fmt.Errorf("timed out after %v (%d states explored)", d.cfg.JobTimeout, res.States))
			return
		case res.Interrupted:
			// Drain: the run checkpointed at the interrupt barrier and
			// stays claimed in work/ for the next daemon start.
			d.cfg.Log.Printf("job %s interrupted for drain after %d states; parked behind checkpoint", name, res.States)
			return
		default:
			d.mu.Lock()
			d.engine.Merge(res.Obs)
			d.mu.Unlock()
			d.complete(name, jobDir, res, c, everResumed, attempts, snapshots, time.Since(start))
			return
		}
	}
}

// attempt runs (or resumes) one exploration of the job in jobDir.
func (d *daemon) attempt(jobDir string) (res litmus.Result, c *litmuslang.Compiled, resumed, timedOut bool, err error) {
	src, err := os.ReadFile(filepath.Join(jobDir, "job.litmus"))
	if err != nil {
		return res, nil, false, false, errPermanent{err}
	}
	c, err = litmuslang.CompileSource(string(src))
	if err != nil {
		return res, nil, false, false, errPermanent{fmt.Errorf("compile: %w", err)}
	}

	var intr atomic.Bool
	unregister := d.registerInterrupt(&intr)
	defer unregister()
	var timerFired atomic.Bool
	if d.cfg.JobTimeout > 0 {
		t := time.AfterFunc(d.cfg.JobTimeout, func() {
			timerFired.Store(true)
			intr.Store(true)
		})
		defer t.Stop()
	}

	ckptDir := filepath.Join(jobDir, "ckpt")
	opts := litmus.Options{
		Properties: c.Properties(),
		Workers:    d.cfg.Workers,
		MaxStates:  d.cfg.MaxStates,
		Checkpoint: litmus.CheckpointOptions{Dir: ckptDir, EveryStates: d.cfg.CkptEvery},
		Interrupt:  &intr,
		Faults:     d.cfg.Faults,
	}

	if _, statErr := os.Stat(filepath.Join(ckptDir, "checkpoint.lbmf")); statErr == nil {
		res, err = litmus.Resume(ckptDir, c.Build, opts)
		switch {
		case err == nil:
			resumed = true
		case errors.Is(err, litmus.ErrCheckpointTruncated),
			errors.Is(err, litmus.ErrCheckpointCorrupt),
			errors.Is(err, litmus.ErrCheckpointMismatch):
			// The checkpoint is unusable; losing it only loses
			// progress, so restart the exploration from scratch.
			d.cfg.Log.Printf("job %s: discarding unusable checkpoint: %v", filepath.Base(jobDir), err)
			if err = os.RemoveAll(ckptDir); err != nil {
				return res, c, false, false, err
			}
			res = litmus.Explore(c.Build, opts)
			err = nil
		default:
			return res, c, false, false, err
		}
	} else {
		res = litmus.Explore(c.Build, opts)
	}
	if resumed {
		d.resumed.Add(1)
	}
	if res.Crashed {
		// An armed fault killed the exploration mid-run — the in-process
		// stand-in for the process dying. The on-disk checkpoint holds
		// whatever committed; report transient so the retry loop resumes.
		return res, c, resumed, false, errors.New("exploration crashed")
	}
	return res, c, resumed, timerFired.Load(), nil
}

// complete writes the verdict and moves the job to done/.
func (d *daemon) complete(name, jobDir string, res litmus.Result, c *litmuslang.Compiled, resumed bool, attempts int, snapshots uint64, elapsed time.Duration) {
	outcomes := make(map[string]int, len(res.Outcomes))
	for o, n := range res.Outcomes {
		outcomes[string(o)] = n
	}
	v := jobVerdict{
		Name:        c.Name,
		Threads:     len(c.Programs),
		States:      res.States,
		Transitions: res.Transitions,
		Outcomes:    outcomes,
		Deadlocks:   res.Deadlocks,
		Violations:  res.Violations,
		Property:    c.PropertyDoc,
		Pass:        res.Violations == 0 && !res.Truncated,
		Resumed:     resumed,
		Attempts:    attempts,
		ElapsedMs:   elapsed.Milliseconds(),
		Keys:        res.Keys(),
		Snapshots:   snapshots,
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(jobDir, "verdict.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		d.fail(name, jobDir, fmt.Errorf("writing verdict: %w", err))
		return
	}
	os.RemoveAll(filepath.Join(jobDir, "ckpt")) // verdict written; any periodic snapshot left is dead weight
	if err := d.moveJob(jobDir, filepath.Join(d.done, name)); err != nil {
		d.cfg.Log.Printf("job %s: moving to done/: %v", name, err)
		d.failures.Add(1)
		return
	}
	d.completed.Add(1)
	verdict := "pass"
	if !v.Pass {
		verdict = "FAIL"
	}
	d.cfg.Log.Printf("job %s: %s (%d states, %d violations, attempts=%d, resumed=%v)",
		name, verdict, v.States, v.Violations, attempts, resumed)
}

// fail records the error and moves the job to failed/.
func (d *daemon) fail(name, jobDir string, jobErr error) {
	d.failures.Add(1)
	d.cfg.Log.Printf("job %s failed: %v", name, jobErr)
	msg := jobErr.Error() + "\n"
	if err := os.WriteFile(filepath.Join(jobDir, "error.txt"), []byte(msg), 0o644); err != nil {
		d.cfg.Log.Printf("job %s: writing error.txt: %v", name, err)
	}
	if err := d.moveJob(jobDir, filepath.Join(d.failed, name)); err != nil {
		d.cfg.Log.Printf("job %s: moving to failed/: %v", name, err)
	}
}

// moveJob renames a work directory to its terminal home, replacing any
// stale result from an earlier submission of the same name.
func (d *daemon) moveJob(from, to string) error {
	if err := os.RemoveAll(to); err != nil {
		return err
	}
	return os.Rename(from, to)
}

// handler serves the daemon's HTTP endpoints: /healthz (200 while
// serving, 503 once draining), /metrics (the metricsPayload JSON) and
// the runtime profiles under /debug/pprof/.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if d.drain.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		payload := metricsPayload{
			Claimed:   d.claimed.Load(),
			Completed: d.completed.Load(),
			Failed:    d.failures.Load(),
			Retried:   d.retried.Load(),
			Resumed:   d.resumed.Load(),
			Active:    d.active.Load(),
			Draining:  d.drain.Load(),
			Wakeups:   d.wakeups.Load(),
			Scans:     d.scans.Load(),
		}
		// Marshal under the lock: Merge mutates the snapshot's maps in
		// place while jobs finish.
		d.mu.Lock()
		payload.Watch = d.watchMode
		payload.Engine = d.engine
		data, err := json.MarshalIndent(payload, "", "  ")
		d.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n'))
	})
	return mux
}
