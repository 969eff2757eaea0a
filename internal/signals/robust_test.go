package signals

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tinyWait forces the backoff ladder into the park phase almost
// immediately, so contention and watchdog paths are exercised without
// long test runtimes.
func tinyWait() WaitPolicy {
	return WaitPolicy{
		SpinIters:  1,
		YieldIters: 1,
		ParkFloor:  time.Microsecond,
		ParkCeil:   50 * time.Microsecond,
	}
}

// TestLockStarvationEightSecondaries is the regression test for the
// queue lock's formerly unbounded busy-wait: eight secondaries contend
// for one primary's mailbox; all of them must complete, the primary
// must handle every request, and the contention must escalate into
// parked sleeps rather than eight spinning cores.
//
// The primary holds off until a queued secondary has parked on the
// mailbox's lock: with a primary that answers at once, the lock holder
// can finish all its round trips before any other secondary runs, and
// whether anyone parks is then up to the scheduler.
func TestLockStarvationEightSecondaries(t *testing.T) {
	var m Mailbox
	m.Name = "starvation-eight"
	m.Wait = tinyWait()
	lockParked := func() bool {
		for _, e := range BlockedWaits() {
			if e.Mailbox == m.Name && e.Op == "lock" {
				return true
			}
		}
		return false
	}

	const secondaries = 8
	const each = 50
	var done atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < secondaries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < each; n++ {
				m.Serialize()
			}
			done.Add(1)
		}()
	}
	primaryDone := make(chan struct{})
	go func() {
		defer close(primaryDone)
		deadline := time.Now().Add(10 * time.Second)
		for !lockParked() {
			if time.Now().After(deadline) {
				t.Errorf("no secondary parked on the mailbox lock within 10s: lock wait spins unbounded")
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		for done.Load() < secondaries {
			m.Poll()
		}
	}()
	wg.Wait()
	<-primaryDone

	if got, want := m.Metrics.Requests.Load(), uint64(secondaries*each); got != want {
		t.Fatalf("requests = %d, want %d", got, want)
	}
	if got, want := m.Metrics.Handled.Load(), m.Metrics.Requests.Load(); got != want {
		t.Fatalf("handled = %d, want %d (lost wakeup)", got, want)
	}
	if m.Metrics.BackoffParks.Load() == 0 {
		t.Fatalf("eight contenders never parked: backoff ladder not engaged")
	}
}

// TestTrySerializeClosedMidSpinCountsClosedExit pins the fix for the
// heuristic's closed-exit accounting: a mailbox closing while the
// heuristic spins must return true (vacuous serialization) and count
// ClosedExits — not a heuristic hit, not a fallback.
func TestTrySerializeClosedMidSpinCountsClosedExit(t *testing.T) {
	var m Mailbox
	calls := 0
	got := m.TrySerializeWith(1000, func() {
		calls++
		if calls == 3 {
			m.Close()
		}
	})
	if !got {
		t.Fatalf("TrySerializeWith on a closing mailbox = false, want true")
	}
	if got := m.Metrics.ClosedExits.Load(); got != 1 {
		t.Fatalf("ClosedExits = %d, want 1", got)
	}
	if hits := m.Metrics.HeuristicHits.Load(); hits != 0 {
		t.Fatalf("HeuristicHits = %d, want 0 (closed exit is not a hit)", hits)
	}
	if fb := m.Metrics.HeuristicFallbacks.Load(); fb != 0 {
		t.Fatalf("HeuristicFallbacks = %d, want 0 (closed exit is not a fallback)", fb)
	}
}

// TestTrySerializeClosedBeforeEntry covers the entry-path closed exit:
// vacuous true, ClosedExits counted, and no request posted.
func TestTrySerializeClosedBeforeEntry(t *testing.T) {
	var m Mailbox
	m.Close()
	if !m.TrySerialize(100) {
		t.Fatalf("TrySerialize on closed mailbox = false, want true")
	}
	if got := m.Metrics.ClosedExits.Load(); got != 1 {
		t.Fatalf("ClosedExits = %d, want 1", got)
	}
	if got := m.Metrics.Requests.Load(); got != 0 {
		t.Fatalf("Requests = %d, want 0 (no round trip on a closed mailbox)", got)
	}
}

// TestCloseRacesSerialize exercises Close racing in-flight Serialize
// calls — including waiters queued in the mailbox's internal lock —
// under the race detector. Every caller must return.
func TestCloseRacesSerialize(t *testing.T) {
	for round := 0; round < 20; round++ {
		var m Mailbox
		m.Wait = tinyWait()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 50; n++ {
					m.Serialize()
					if m.Closed() {
						return
					}
				}
			}()
		}
		// Serve a few requests so some secondaries are mid-round-trip
		// (one holding the queue lock, others queued), then close.
		for i := 0; i < 5; i++ {
			m.Poll()
		}
		m.Close()
		wg.Wait()
	}
}

// TestCloseRacesTrySerializeHeuristic races Close against the ARW+
// heuristic spin: large budgets keep callers inside the spin window
// when the close lands.
func TestCloseRacesTrySerializeHeuristic(t *testing.T) {
	for round := 0; round < 20; round++ {
		var m Mailbox
		m.Wait = tinyWait()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !m.Closed() {
					m.TrySerialize(1 << 16)
				}
			}()
		}
		for i := 0; i < 3; i++ {
			m.Poll()
		}
		m.Close()
		wg.Wait()
	}
}

// TestCloseRacesTrySerializeFallback races Close against the
// post-heuristic fallback wait: zero budget sends every caller
// straight to the signal-priced wait loop.
func TestCloseRacesTrySerializeFallback(t *testing.T) {
	for round := 0; round < 20; round++ {
		var m Mailbox
		m.Wait = tinyWait()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !m.Closed() {
					m.TrySerialize(0)
				}
			}()
		}
		for i := 0; i < 3; i++ {
			m.Poll()
		}
		m.Close()
		wg.Wait()
	}
}

// TestDeadlineEscapesNeverPollingPrimary proves a secondary escapes a
// primary that never polls: the watchdog trips, SerializeWithContext
// returns ErrStalled, the mailbox turns suspect so later callers fail
// fast, and Revive plus a handled request restore normal service.
func TestDeadlineEscapesNeverPollingPrimary(t *testing.T) {
	var m Mailbox
	m.Wait = tinyWait()
	m.Wait.Deadline = 10 * time.Millisecond

	start := time.Now()
	err := m.SerializeWithContext(nil, nil)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("SerializeWithContext = %v, want ErrStalled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("escape took %v, want roughly the 10ms deadline", elapsed)
	}
	if !m.Suspect() {
		t.Fatalf("mailbox not suspect after watchdog trip")
	}
	if got := m.Metrics.WatchdogTrips.Load(); got == 0 {
		t.Fatalf("WatchdogTrips = 0 after a trip")
	}
	if got := m.Metrics.StalledExits.Load(); got == 0 {
		t.Fatalf("StalledExits = 0 after a stalled escape")
	}

	// Suspect mailboxes fail fast: no new round trip, immediate error.
	before := m.Metrics.Requests.Load()
	if err := m.SerializeWithContext(nil, nil); !errors.Is(err, ErrStalled) {
		t.Fatalf("suspect fast path = %v, want ErrStalled", err)
	}
	if got := m.Metrics.Requests.Load(); got != before {
		t.Fatalf("suspect fast path posted a request")
	}

	// The primary comes back: Revive lifts the sentence and a normal
	// round trip completes again.
	m.Revive()
	if m.Suspect() {
		t.Fatalf("still suspect after Revive")
	}
	done := make(chan error, 1)
	go func() { done <- m.SerializeWithContext(nil, nil) }()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("post-revive serialize = %v, want nil", err)
			}
			return
		case <-deadline:
			t.Fatalf("post-revive serialize never completed")
		default:
			m.Poll()
		}
	}
}

// TestSerializeContextCancel covers the third exit arm: a context
// cancellation (not a watchdog trip) ends the wait with the context's
// error and without marking the mailbox suspect.
func TestSerializeContextCancel(t *testing.T) {
	var m Mailbox
	m.Wait = tinyWait() // no Deadline: watchdog off
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := m.SerializeWithContext(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SerializeWithContext = %v, want context.Canceled", err)
	}
	if m.Suspect() {
		t.Fatalf("context cancellation must not mark the primary suspect")
	}
	if got := m.Metrics.StalledExits.Load(); got != 0 {
		t.Fatalf("StalledExits = %d on a context cancel, want 0", got)
	}
}
