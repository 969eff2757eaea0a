package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/signals"
)

// WorkerStats counts scheduling events on one worker. Fields are written
// only by their owning worker (or, for steal counters, under the deque's
// thief mutex) and read after Run returns. BackoffParks is the exception:
// the owner parks while idle and a thief parks while waiting on this
// worker's deque, so both add to it atomically.
type WorkerStats struct {
	Tasks         uint64 // tasks executed (spawned work, own or stolen)
	Spawns        uint64 // tasks pushed
	StealAttempts uint64 // stealTop calls against other workers
	Steals        uint64 // successful steals
	Signals       uint64 // serialization round trips initiated (asym deques)
	StealsServed  uint64 // requests this worker answered as a victim
	Fences        uint64 // program-based fences executed (sym deques)
	Conflicts     uint64 // deque conflicts: THE pops that took the lock
	BackoffParks  uint64 // parked sleeps taken while idle or waiting to steal
	WatchdogTrips uint64 // steal waits abandoned past the no-progress deadline
	StealAbandons uint64 // steal requests left for adoption (freeze or watchdog)
}

func (s WorkerStats) add(o WorkerStats) WorkerStats {
	s.Tasks += o.Tasks
	s.Spawns += o.Spawns
	s.StealAttempts += o.StealAttempts
	s.Steals += o.Steals
	s.Signals += o.Signals
	s.StealsServed += o.StealsServed
	s.Fences += o.Fences
	s.Conflicts += o.Conflicts
	s.BackoffParks += o.BackoffParks
	s.WatchdogTrips += o.WatchdogTrips
	s.StealAbandons += o.StealAbandons
	return s
}

// Snapshot renders the counters as an obs snapshot. WorkerStats stay
// plain (owner-written) uint64s on the hot path; obs enters only at
// reporting time, which is the same zero-fast-path-cost discipline the
// deques themselves follow.
func (s WorkerStats) Snapshot() obs.Snapshot {
	var out obs.Snapshot
	out.PutCounter("tasks", s.Tasks)
	out.PutCounter("spawns", s.Spawns)
	out.PutCounter("steal_attempts", s.StealAttempts)
	out.PutCounter("steals", s.Steals)
	out.PutCounter("signals", s.Signals)
	out.PutCounter("steals_served", s.StealsServed)
	out.PutCounter("fences", s.Fences)
	out.PutCounter("deque_conflicts", s.Conflicts)
	out.PutCounter("backoff_parks", s.BackoffParks)
	out.PutCounter("watchdog_trips", s.WatchdogTrips)
	out.PutCounter("steal_abandons", s.StealAbandons)
	return out
}

// Worker is one scheduler thread. Workload code receives a *Worker and
// uses Do for fork-join parallelism.
type Worker struct {
	id    int
	rt    *Runtime
	deque deque
	rng   uint64
	Stats WorkerStats
}

// ID reports the worker's index in [0, NumWorkers).
func (w *Worker) ID() int { return w.id }

// NumWorkers reports the size of the runtime's worker pool.
func (w *Worker) NumWorkers() int { return len(w.rt.workers) }

// Runtime is a fork-join work-stealing scheduler.
type Runtime struct {
	workers      []*Worker
	mode         core.Mode
	cost         core.CostProfile
	pollInterval int
	wait         signals.WaitPolicy
	faults       *fault.Injector
	done         atomic.Bool
	wg           sync.WaitGroup
}

// RuntimeOption configures a Runtime.
type RuntimeOption func(*Runtime)

// WithPollInterval makes asymmetric victims check their steal mailbox
// only on every k-th deque operation (default 1). Used by the
// steal-poll-granularity ablation; coarser polling trades thief latency
// for an even leaner victim fast path.
func WithPollInterval(k int) RuntimeOption {
	return func(rt *Runtime) {
		if k < 1 {
			k = 1
		}
		rt.pollInterval = k
	}
}

// WithWaitPolicy shapes thieves' steal waits and idle-loop backoff; a
// non-zero Deadline arms the steal watchdog (abandon-and-adopt).
func WithWaitPolicy(p signals.WaitPolicy) RuntimeOption {
	return func(rt *Runtime) { rt.wait = p }
}

// WithFaults arms a fault-injection schedule on every worker's deque
// (nil disarms). The chaos harness uses it to freeze victims at poll
// points and thieves mid-steal.
func WithFaults(in *fault.Injector) RuntimeOption {
	return func(rt *Runtime) { rt.faults = in }
}

// New builds a runtime with p workers using the given fence mode and
// cost profile. p must be positive.
func New(p int, mode core.Mode, cost core.CostProfile, opts ...RuntimeOption) *Runtime {
	if p <= 0 {
		panic(fmt.Sprintf("sched: need at least one worker, got %d", p))
	}
	rt := &Runtime{mode: mode, cost: cost, pollInterval: 1}
	for _, o := range opts {
		o(rt)
	}
	rt.workers = make([]*Worker, p)
	for i := range rt.workers {
		w := &Worker{id: i, rt: rt, rng: uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
		w.deque = newDeque(mode, cost, &w.Stats)
		if ad, ok := w.deque.(*asymDeque); ok {
			ad.pollInterval = rt.pollInterval
			ad.wait = rt.wait
			ad.faults = rt.faults
		}
		rt.workers[i] = w
	}
	return rt
}

// Mode reports the runtime's fence discipline.
func (rt *Runtime) Mode() core.Mode { return rt.mode }

// Stats returns the sum of all workers' statistics.
func (rt *Runtime) Stats() WorkerStats {
	var s WorkerStats
	for _, w := range rt.workers {
		s = s.add(w.Stats)
	}
	return s
}

// ObsSnapshot captures the pool-wide scheduling counters for the
// benchmark pipeline, plus a steals-per-attempt gauge.
func (rt *Runtime) ObsSnapshot() obs.Snapshot {
	s := rt.Stats()
	out := s.Snapshot()
	if s.StealAttempts > 0 {
		out.PutGauge("steal_success_rate", float64(s.Steals)/float64(s.StealAttempts))
	}
	return out
}

// PerWorkerStats returns each worker's statistics.
func (rt *Runtime) PerWorkerStats() []WorkerStats {
	out := make([]WorkerStats, len(rt.workers))
	for i, w := range rt.workers {
		out[i] = w.Stats
	}
	return out
}

// Run executes root to completion on worker 0 while the remaining
// workers steal. It blocks until root (and all work it spawned) is done,
// then shuts the pool down. A Runtime is single-use: build a fresh one
// per measurement so statistics stay attributable.
func (rt *Runtime) Run(root func(*Worker)) {
	if rt.done.Load() {
		panic("sched: Runtime is single-use; Run called twice")
	}
	for _, w := range rt.workers[1:] {
		rt.wg.Add(1)
		go func(w *Worker) {
			defer rt.wg.Done()
			w.loop()
		}(w)
	}
	w0 := rt.workers[0]
	root(w0)
	rt.done.Store(true)
	for _, w := range rt.workers {
		w.deque.close()
	}
	rt.wg.Wait()
}

// loop is the idle worker's scheduling loop: answer serialization
// requests against our own deque, try to steal, run what we get.
func (w *Worker) loop() {
	b := signals.NewBackoff(w.rt.wait)
	for !w.rt.done.Load() {
		w.deque.poll()
		if t := w.trySteal(); t != nil {
			b.Reset()
			w.runTask(t)
			// Drain own deque: stolen tasks may have spawned.
			for {
				t := w.deque.popBottom()
				if t == nil {
					break
				}
				w.runTask(t)
			}
			continue
		}
		if b.Pause() {
			atomic.AddUint64(&w.Stats.BackoffParks, 1)
		}
	}
}

func (w *Worker) runTask(t *task) {
	w.Stats.Tasks++
	t.fn(w)
	t.join.Add(-1)
}

// nextVictim picks a random other worker (xorshift; worker-local).
func (w *Worker) nextVictim() *Worker {
	n := len(w.rt.workers)
	if n == 1 {
		return nil
	}
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	v := int(w.rng % uint64(n-1))
	if v >= w.id {
		v++
	}
	return w.rt.workers[v]
}

// trySteal makes one steal attempt against a random victim.
func (w *Worker) trySteal() *task {
	victim := w.nextVictim()
	if victim == nil {
		return nil
	}
	w.Stats.StealAttempts++
	t := victim.deque.stealTop(w.deque.poll)
	if t != nil {
		w.Stats.Steals++
	}
	return t
}

// Do is the fork-join primitive: it runs every function as a task and
// returns when all have completed. fns[0] executes inline on w (the
// Cilk continuation-in-place); the rest are pushed onto w's deque where
// thieves may take them. Nested calls are allowed and expected.
func (w *Worker) Do(fns ...func(*Worker)) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0](w)
		return
	}
	var pending atomic.Int32
	pending.Store(int32(len(fns) - 1))
	// Push right-to-left so thieves (stealing oldest-first) see the
	// leftmost spawned child first, matching Cilk's steal order.
	for i := len(fns) - 1; i >= 1; i-- {
		w.Stats.Spawns++
		w.deque.pushBottom(&task{fn: fns[i], join: &pending})
	}
	fns[0](w)
	// Sync: execute our own children; if they were stolen, help
	// elsewhere until the thieves finish them.
	b := signals.NewBackoff(w.rt.wait)
	for pending.Load() > 0 {
		if t := w.deque.popBottom(); t != nil {
			w.runTask(t)
			b.Reset()
			continue
		}
		w.deque.poll()
		if t := w.trySteal(); t != nil {
			w.runTask(t)
			b.Reset()
			continue
		}
		if b.Pause() {
			atomic.AddUint64(&w.Stats.BackoffParks, 1)
		}
	}
}

// Poll lets long-running leaf computations service steal requests (the
// paper's primary polls only at protocol boundaries; compute-heavy
// leaves may add explicit poll points exactly as JVMs add safepoints).
func (w *Worker) Poll() { w.deque.poll() }
