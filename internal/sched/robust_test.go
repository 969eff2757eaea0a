package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/signals"
)

func testWait() signals.WaitPolicy {
	return signals.WaitPolicy{
		SpinIters:  1,
		YieldIters: 1,
		ParkFloor:  time.Microsecond,
		ParkCeil:   50 * time.Microsecond,
		Deadline:   10 * time.Millisecond,
	}
}

func mkJoinTask() *task {
	var join atomic.Int32
	join.Store(1)
	return &task{fn: func(*Worker) {}, join: &join}
}

// TestStealAbandonOrphanAdoption pins the no-lost-wakeups contract of
// steal abandonment: a thief frozen mid-steal (injected) leaves its
// posted request as an orphan; the victim answers that epoch by popping
// a task; the next thief must adopt the orphan — receiving exactly that
// task without posting a new request — rather than stranding it.
func TestStealAbandonOrphanAdoption(t *testing.T) {
	var ws WorkerStats
	d := newAsymDeque(core.ModeAsymmetricSW, core.ZeroCosts(), &ws)
	d.wait = testWait()
	in := fault.New(1)
	in.Arm(fault.DequeSteal, fault.Plan{Prob: 1, MaxFires: 1, Drop: true})
	d.faults = in

	first, second := mkJoinTask(), mkJoinTask()
	d.pushBottom(first)
	d.pushBottom(second)

	// Thief 1 freezes mid-steal: request posted, wait abandoned.
	if got := d.stealTop(nil); got != nil {
		t.Fatalf("frozen thief stole %v, want nil", got)
	}
	if ws.StealAbandons != 1 {
		t.Fatalf("StealAbandons = %d, want 1", ws.StealAbandons)
	}
	if d.orphan == 0 {
		t.Fatalf("abandoned request not recorded as orphan")
	}

	// The victim answers the orphaned epoch: it pops the oldest task
	// for a thief that is no longer waiting.
	d.poll()
	if d.ack.Load() != d.req.Load() {
		t.Fatalf("victim did not acknowledge the orphaned request")
	}

	// Thief 2 adopts: same epoch, no new request, and it receives the
	// task the victim already popped — the task is handed on, not lost.
	signalsBefore := ws.Signals
	got := d.stealTop(nil)
	if got != first {
		t.Fatalf("adopting thief got %v, want the task popped for the orphan", got)
	}
	if ws.Signals != signalsBefore {
		t.Fatalf("adoption posted a new request (Signals %d -> %d)", signalsBefore, ws.Signals)
	}
	if d.orphan != 0 {
		t.Fatalf("orphan not cleared after adoption")
	}

	// Normal service resumes: the next steal is a fresh request. The
	// abandon path is covered above; here a starved polling loop must
	// not trip the watchdog, so the thief waits out a long deadline.
	d.wait.Deadline = time.Minute
	stealDone := make(chan *task, 1)
	go func() { stealDone <- d.stealTop(nil) }()
	for {
		select {
		case got := <-stealDone:
			if got != second {
				t.Fatalf("post-adoption steal got %v, want the second task", got)
			}
			return
		default:
			d.poll()
		}
	}
}

// TestStealWatchdogAbandonsFrozenVictim proves a thief escapes a victim
// that stops polling: the steal watchdog trips at the deadline, the
// request is left for adoption, and when the victim thaws the answer is
// recovered by the next thief.
func TestStealWatchdogAbandonsFrozenVictim(t *testing.T) {
	var ws WorkerStats
	d := newAsymDeque(core.ModeAsymmetricSW, core.ZeroCosts(), &ws)
	d.wait = testWait()

	tk := mkJoinTask()
	d.pushBottom(tk)
	// The victim now freezes: no poll runs until we thaw it below.

	start := time.Now()
	if got := d.stealTop(nil); got != nil {
		t.Fatalf("thief on frozen victim stole %v, want nil (abandon)", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abandon took %v, want roughly the 10ms deadline", elapsed)
	}
	if ws.WatchdogTrips != 1 {
		t.Fatalf("WatchdogTrips = %d, want 1", ws.WatchdogTrips)
	}
	if ws.StealAbandons != 1 {
		t.Fatalf("StealAbandons = %d, want 1", ws.StealAbandons)
	}
	if ws.BackoffParks == 0 {
		t.Fatalf("thief never parked while waiting out the frozen victim")
	}

	// Thaw: the victim answers the orphaned request, and the next thief
	// adopts its response.
	d.poll()
	if got := d.stealTop(nil); got != tk {
		t.Fatalf("post-thaw steal got %v, want the orphaned task", got)
	}
}

// TestRuntimeUnderFaultsComputesExactly is the end-to-end scheduler
// invariant under injected faults: dropped victim polls and frozen
// thieves must never lose a task — the fork-join reduction stays exact.
func TestRuntimeUnderFaultsComputesExactly(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		in := fault.New(seed)
		in.Arm(fault.DequePoll, fault.Plan{Prob: 0.3, Drop: true})
		in.Arm(fault.DequeSteal, fault.Plan{Prob: 0.3, StallYields: 3, Drop: true})
		rt := New(3, core.ModeAsymmetricSW, core.ZeroCosts(),
			WithWaitPolicy(testWait()), WithFaults(in))

		const n = 1 << 11
		var sum atomic.Int64
		var rec func(w *Worker, lo, hi int)
		rec = func(w *Worker, lo, hi int) {
			if hi-lo <= 16 {
				s := int64(0)
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				sum.Add(s)
				return
			}
			mid := (lo + hi) / 2
			w.Do(
				func(w *Worker) { rec(w, lo, mid) },
				func(w *Worker) { rec(w, mid, hi) },
			)
		}
		rt.Run(func(w *Worker) { rec(w, 0, n) })
		if got, want := sum.Load(), int64(n)*int64(n-1)/2; got != want {
			t.Fatalf("seed %d: sum = %d, want %d (lost task under faults)", seed, got, want)
		}
	}
}
