// Package sched is a Cilk-5-style work-stealing fork-join runtime with a
// pluggable fence discipline on the victim's deque operations — the
// "ACilk-5 vs Cilk-5" comparison of the paper's evaluation.
//
// The victim/thief coordination is the paper's motivating asymmetric
// Dekker pattern: the victim (primary) touches its own deque constantly;
// thieves (secondaries) interfere rarely. Two deque implementations
// realize the two fence disciplines:
//
//   - symDeque — the THE protocol of Cilk-5: tail (T) and head (H) are
//     shared atomics, every pop executes the program-based memory fence
//     between publishing the tail decrement and reading the head, and
//     conflicts fall back to a lock. The victim pays the fence on every
//     pop, contended or not.
//
//   - asymDeque — the location-based discipline: the deque body, head,
//     and tail are plain owner-only memory (the "guarded locations"); a
//     thief never reads them. Instead the thief posts a steal request
//     and the victim answers it at its next poll point (every push/pop —
//     one atomic load, the software analogue of the armed LEBit). The
//     victim's fast path carries no fence at all; the thief bears the
//     whole communication cost, inflated by the configured signal or
//     hardware round-trip delay.
package sched

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/signals"
)

// task is one stealable unit of work. Whoever runs it decrements its
// join counter afterwards.
type task struct {
	fn   func(*Worker)
	join *atomic.Int32
}

// dequeCapacity bounds per-worker deques. Child-stealing keeps the deque
// depth proportional to the spawn recursion depth, so this is generous.
const dequeCapacity = 1 << 15

// deque abstracts over the two fence disciplines. pushBottom/popBottom
// are owner-only; stealTop may be called by any other worker; poll is the
// owner's poll point; close releases pending and future thieves.
type deque interface {
	pushBottom(t *task)
	popBottom() *task
	// stealTop attempts to steal the oldest task. onWait, which may be
	// nil, is invoked periodically while the thief waits (for the
	// victim's serialization, or for other thieves); thieves pass their
	// own deque's poll so that steal requests against *them* stay
	// serviced — otherwise two workers stealing from each other
	// deadlock, each waiting for the other's poll.
	stealTop(onWait func()) *task
	poll()
	close()
	size() int
}

// --- Symmetric: the THE protocol with a program-based fence ----------

// symDeque implements Cilk-5's THE protocol. Indices grow without bound
// and are mapped onto the ring by masking; valid entries live in
// [head, tail).
type symDeque struct {
	tasks [dequeCapacity]*task

	_    [8]uint64
	head atomic.Int64
	_    [8]uint64
	tail atomic.Int64
	_    [8]uint64

	mu spinLock // the "E" lock of THE, taken on conflicts and by thieves

	fenceWord atomic.Uint64
	cost      core.CostProfile
	stats     *WorkerStats
}

func newSymDeque(cost core.CostProfile, stats *WorkerStats) *symDeque {
	return &symDeque{cost: cost, stats: stats}
}

// fence is the program-based mfence the victim executes on every pop:
// real serializing RMWs on a private word plus the calibrated drain
// penalty.
func (d *symDeque) fence() {
	for i := 0; i < d.cost.FencePenaltyOps; i++ {
		d.fenceWord.Add(1)
	}
	if d.cost.FencePenaltySpins > 0 {
		signals.Spin(d.cost.FencePenaltySpins)
	}
	d.stats.Fences++
}

func (d *symDeque) pushBottom(t *task) {
	tail := d.tail.Load()
	if tail-d.head.Load() >= dequeCapacity {
		panic("sched: deque overflow")
	}
	d.tasks[tail&(dequeCapacity-1)] = t
	d.tail.Store(tail + 1) // release: the slot write precedes the publish
}

func (d *symDeque) popBottom() *task {
	t := d.tail.Load() - 1
	d.tail.Store(t) // publish intent to take index t
	d.fence()       // the Dekker fence between the T write and the H read
	h := d.head.Load()
	if h < t {
		return d.tasks[t&(dequeCapacity-1)] // no conflict possible
	}
	if h > t {
		// Deque was already empty; restore and leave.
		d.stats.Conflicts++
		d.mu.lock()
		h = d.head.Load()
		if h <= t {
			tk := d.tasks[t&(dequeCapacity-1)]
			d.mu.unlock()
			return tk
		}
		d.tail.Store(h)
		d.mu.unlock()
		return nil
	}
	// h == t: exactly one entry, a thief may be racing for it.
	d.stats.Conflicts++
	d.mu.lock()
	h = d.head.Load()
	if h <= t {
		tk := d.tasks[t&(dequeCapacity-1)]
		d.mu.unlock()
		return tk
	}
	d.tail.Store(h)
	d.mu.unlock()
	return nil
}

func (d *symDeque) stealTop(onWait func()) *task {
	d.mu.lockWith(onWait)
	h := d.head.Load()
	d.head.Store(h + 1) // publish intent (the thief's side of the duality)
	t := d.tail.Load()
	if h >= t {
		d.head.Store(h) // roll back; nothing to steal
		d.mu.unlock()
		return nil
	}
	tk := d.tasks[h&(dequeCapacity-1)]
	d.mu.unlock()
	return tk
}

func (d *symDeque) poll()     {} // symmetric victims have nothing to poll
func (d *symDeque) close()    {}
func (d *symDeque) size() int { return int(d.tail.Load() - d.head.Load()) }

// spinLock is a tiny test-and-set lock; THE's conflict path is short and
// rare, and a futex-style mutex would distort the modelled costs. The
// contended path backs off (spin → yield → capped parks) so a pile-up
// of thieves does not burn a core each.
type spinLock struct{ v atomic.Int32 }

func (l *spinLock) lock() { l.lockWith(nil) }

func (l *spinLock) lockWith(onWait func()) {
	if l.v.CompareAndSwap(0, 1) {
		return
	}
	b := signals.NewBackoff(signals.WaitPolicy{})
	for !l.v.CompareAndSwap(0, 1) {
		if onWait != nil {
			onWait()
		}
		b.Pause()
	}
}

func (l *spinLock) unlock() { l.v.Store(0) }

// --- Asymmetric: owner-only deque with steal delegation --------------

// asymDeque keeps the whole deque in owner-only memory. Thieves never
// read head, tail, or the task array: they post a request and receive
// the stolen task through a response cell, paying the round trip that
// the paper charges to the secondary thread.
type asymDeque struct {
	tasks [dequeCapacity]*task
	head  int64 // owner-only
	tail  int64 // owner-only

	// pollInterval makes the owner check its mailbox only on every k-th
	// deque operation (1 = every operation). Coarser polling shaves the
	// owner's already-small fast-path cost at the price of steal
	// latency — the trade-off the steal-poll-granularity ablation
	// measures.
	pollInterval int
	opCount      int // owner-only

	_   [8]uint64
	req atomic.Uint64 // epoch of the latest steal request
	_   [8]uint64
	ack atomic.Uint64 // epoch of the latest answered request
	_   [8]uint64

	resp   *task       // written by the owner before ack.Store (release)
	closed atomic.Bool // owner departed: steals fail fast

	thiefMu spinLock // thieves compete for the victim, one at a time

	// orphan is a posted steal request whose thief gave up waiting
	// (watchdog deadline, injected freeze). It is read and written only
	// under thiefMu. The next thief adopts it instead of posting a new
	// request, so the task the victim pops for an abandoned request is
	// handed on rather than lost — abandonment must never break the
	// no-lost-wakeups invariant.
	orphan uint64

	// wait shapes the thief-side ack wait; wait.Deadline arms the
	// watchdog that lets a thief give up on a frozen victim.
	wait signals.WaitPolicy
	// faults is the optional fault-injection schedule (nil in
	// production).
	faults *fault.Injector

	// Delays model the communication cost of the serialization round
	// trip: requesterDelay on the thief per steal, handlerDelay on the
	// victim per handled request (the signal handler of the prototype).
	requesterDelay int
	handlerDelay   int

	stats *WorkerStats
}

func newAsymDeque(mode core.Mode, cost core.CostProfile, stats *WorkerStats) *asymDeque {
	d := &asymDeque{stats: stats, pollInterval: 1}
	switch mode {
	case core.ModeAsymmetricSW:
		d.requesterDelay = cost.SignalRoundTrip
		d.handlerDelay = cost.SignalHandler
	case core.ModeAsymmetricHW:
		d.requesterDelay = cost.HWRoundTrip
		d.handlerDelay = 0
	}
	return d
}

func (d *asymDeque) pushBottom(t *task) {
	if d.tail-d.head >= dequeCapacity {
		panic("sched: deque overflow")
	}
	d.tasks[d.tail&(dequeCapacity-1)] = t
	d.tail++ // plain store: the location the l-mfence would guard
	d.pollEvery()
}

func (d *asymDeque) popBottom() *task {
	d.pollEvery()
	if d.tail == d.head {
		return nil
	}
	d.tail--
	return d.tasks[d.tail&(dequeCapacity-1)]
}

// pollEvery is the owner's rate-limited poll point.
func (d *asymDeque) pollEvery() {
	d.opCount++
	if d.opCount >= d.pollInterval {
		d.opCount = 0
		d.poll()
	}
}

// poll is the owner's poll point: one atomic load on the fast path (the
// LEBit-check analogue). On a pending request it serializes — hands the
// top task (or nil) to the thief — and acknowledges.
func (d *asymDeque) poll() {
	r := d.req.Load()
	if r == d.ack.Load() {
		return
	}
	// Below the fast-path branch: the hook costs a nil test, and only
	// when a steal request is pending. A drop makes the owner miss this
	// scheduled poll point; the request stays pending for the next one.
	if d.faults.At(fault.DequePoll) {
		return
	}
	if d.handlerDelay > 0 {
		signals.Spin(d.handlerDelay)
	}
	if d.head < d.tail {
		d.resp = d.tasks[d.head&(dequeCapacity-1)]
		d.head++
	} else {
		d.resp = nil
	}
	d.stats.StealsServed++
	d.ack.Store(r) // release: publishes resp and everything before it
}

func (d *asymDeque) stealTop(onWait func()) *task {
	if d.closed.Load() {
		return nil
	}
	d.thiefMu.lockWith(onWait)
	defer d.thiefMu.unlock()
	if d.closed.Load() {
		return nil
	}
	var e uint64
	if d.orphan != 0 {
		// Adopt the request a previous thief abandoned: the victim
		// will (or already did) answer that epoch; posting a fresh
		// request would strand its response task.
		e = d.orphan
	} else {
		if d.requesterDelay > 0 {
			signals.Spin(d.requesterDelay)
		}
		e = d.req.Add(1)
		d.stats.Signals++
	}
	// Injected mid-steal fault: the thief freezes here, after the
	// request is posted and while it holds the thief lock; a Drop
	// additionally makes it give up the wait entirely.
	if d.faults.At(fault.DequeSteal) {
		d.orphan = e
		d.stats.StealAbandons++
		return nil
	}
	b := signals.NewBackoff(d.wait)
	var start time.Time
	for d.ack.Load() < e {
		if d.closed.Load() {
			return nil
		}
		if onWait != nil {
			onWait()
		}
		if b.Pause() {
			atomic.AddUint64(&d.stats.BackoffParks, 1)
			if dl := b.Policy().Deadline; dl > 0 {
				if start.IsZero() {
					start = time.Now()
				} else if stall := time.Since(start); stall > dl {
					// Watchdog: the victim shows no progress; give up
					// on it and leave the request for adoption so its
					// eventual answer is not lost.
					d.orphan = e
					d.stats.WatchdogTrips++
					d.stats.StealAbandons++
					return nil
				}
			}
		}
	}
	d.orphan = 0
	return d.resp
}

func (d *asymDeque) close() { d.closed.Store(true) }

func (d *asymDeque) size() int { return int(d.tail - d.head) }

var _ deque = (*symDeque)(nil)
var _ deque = (*asymDeque)(nil)

func newDeque(mode core.Mode, cost core.CostProfile, stats *WorkerStats) deque {
	switch mode {
	case core.ModeSymmetric:
		return newSymDeque(cost, stats)
	case core.ModeAsymmetricSW, core.ModeAsymmetricHW:
		return newAsymDeque(mode, cost, stats)
	case core.ModeNoFence:
		// The unfenced baseline: THE structure with a free fence. On real
		// TSO hardware this is the broken variant; under Go's seq-cst
		// atomics it stays correct and bounds the fence-free cost.
		d := newSymDeque(core.CostProfile{}, stats)
		return d
	default:
		panic(fmt.Sprintf("sched: unknown mode %v", mode))
	}
}
