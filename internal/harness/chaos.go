package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rwlock"
	"repro/internal/sched"
	"repro/internal/signals"
	"repro/internal/stats"
)

// ChaosRow is one protocol run under one seeded fault schedule.
type ChaosRow struct {
	Seed     uint64
	Protocol string // "dekker", "dekker-kill", "arw", "arw+", "sched"
	// Violations counts broken paper invariants: mutual-exclusion
	// overlaps, torn reads under the read lock, or a wrong fork-join
	// result (a lost task). Zero or the row fails.
	Violations int
	// Entries / Recovered count protocol operations attempted and
	// completed; every attempt must complete (no lost wakeups).
	Entries   int
	Recovered int
	// Fault-path observability: how often injected faults fired, how
	// often the watchdog tripped, and (for sched) how many steal
	// requests were abandoned for adoption.
	FaultFires    uint64
	WatchdogTrips uint64
	StealAbandons uint64
	// RecoverNs is the wall time from the primary's death to the last
	// blocked secondary completing (dekker-kill only).
	RecoverNs int64
	Pass      bool
	Detail    string
}

// ChaosResult is the chaos experiment: every protocol family exercised
// under every configured fault seed, plus the fast-path control
// measurement proving the injection hooks are free when unset.
type ChaosResult struct {
	Rows []ChaosRow
	// PollFastPathNs is the primary's no-request poll cost measured
	// with fault hooks compiled in but disarmed — the number the
	// benchmark pipeline guards against hook-cost regressions.
	PollFastPathNs float64
	// Obs aggregates mailbox, lock, and scheduler metrics across all
	// chaos runs (watchdog trips, backoff parks, stalled exits, fault
	// counters).
	Observed
}

// AllPass reports whether every chaos row held its invariants.
func (r *ChaosResult) AllPass() bool {
	return allPass(r.Rows, func(row ChaosRow) bool { return row.Pass })
}

// chaosWait is the wait policy for live-primary chaos runs: parks come
// quickly so fault-induced stalls exercise the ladder, but the
// watchdog deadline is generous — a delayed primary is slow, not dead.
func chaosWait() signals.WaitPolicy {
	return signals.WaitPolicy{
		SpinIters:  32,
		YieldIters: 64,
		ParkFloor:  5 * time.Microsecond,
		ParkCeil:   200 * time.Microsecond,
		Deadline:   2 * time.Second,
	}
}

// killWait is the wait policy for dead-primary runs: a short deadline
// so blocked secondaries detect the death promptly.
func killWait() signals.WaitPolicy {
	p := chaosWait()
	p.Deadline = 25 * time.Millisecond
	return p
}

// chaosDekker runs the asymmetric Dekker protocol with a live but
// faulty primary: handled requests are dropped and acknowledgements
// delayed on the injector's schedule. Invariants: mutual exclusion and
// completion of every entry.
func chaosDekker(seed uint64) ChaosRow {
	row := ChaosRow{Seed: seed, Protocol: "dekker"}
	in := fault.New(seed)
	in.Arm(fault.MailboxHandle, fault.Plan{Prob: 0.15, StallYields: 2, Drop: true})
	in.Arm(fault.MailboxAck, fault.Plan{Prob: 0.2, StallYields: 20})

	d := core.NewDekker(core.ModeAsymmetricSW, core.ZeroCosts())
	d.Fence().SetFaults(in)
	d.Fence().SetWaitPolicy(chaosWait())
	d.Fence().SetName(fmt.Sprintf("chaos-dekker-%d", seed))

	const secondaries = 3
	const entriesEach = 200
	var inside atomic.Int32
	var violations atomic.Int32
	var recovered atomic.Int32
	var remaining atomic.Int32
	remaining.Store(secondaries)

	var wg sync.WaitGroup
	for i := 0; i < secondaries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer remaining.Add(-1)
			for n := 0; n < entriesEach; n++ {
				if err := d.SecondaryEnterContext(nil, nil); err != nil {
					violations.Add(1)
					return
				}
				if inside.Add(1) != 1 {
					violations.Add(1)
				}
				inside.Add(-1)
				d.SecondaryExit()
				recovered.Add(1)
			}
		}()
	}
	// The primary mostly polls with its flag down — entering on every
	// iteration would keep l1 raised and starve parked secondaries,
	// which the biased protocol permits — and takes the critical
	// section itself every few iterations.
	for i := 0; remaining.Load() > 0; i++ {
		if i%4 == 0 {
			d.PrimaryEnter()
			if inside.Add(1) != 1 {
				violations.Add(1)
			}
			inside.Add(-1)
			d.PrimaryExit()
		} else {
			d.Fence().Poll()
		}
		runtime.Gosched()
	}
	wg.Wait()
	d.Fence().Close()

	row.Entries = secondaries * entriesEach
	row.Recovered = int(recovered.Load())
	row.Violations = int(violations.Load())
	row.FaultFires = in.Fires(fault.MailboxHandle) + in.Fires(fault.MailboxAck)
	snap := d.Fence().ObsSnapshot()
	row.WatchdogTrips = snap.Counters["watchdog_trips"]
	row.Pass = row.Violations == 0 && row.Recovered == row.Entries
	if !row.Pass {
		row.Detail = fmt.Sprintf("%d violations, %d/%d entries completed",
			row.Violations, row.Recovered, row.Entries)
	}
	return row
}

// chaosDekkerKill kills the primary without Close mid-run: blocked
// secondaries must trip the watchdog, drain through the vacuous
// serialization path, and all complete. Invariants: mutual exclusion
// among the surviving secondaries, every entry completing, and at
// least one watchdog trip.
func chaosDekkerKill(seed uint64) ChaosRow {
	row := ChaosRow{Seed: seed, Protocol: "dekker-kill"}
	d := core.NewDekker(core.ModeAsymmetricSW, core.ZeroCosts())
	d.Fence().SetWaitPolicy(killWait())
	d.Fence().SetName(fmt.Sprintf("chaos-dekker-kill-%d", seed))

	const secondaries = 3
	const liveEach = 20 // entries served by the live primary
	const deadEach = 20 // entries attempted after the kill
	var inside atomic.Int32
	var violations atomic.Int32
	var recovered atomic.Int32
	var liveRemaining atomic.Int32
	liveRemaining.Store(secondaries)
	dead := make(chan struct{})
	var killedAt time.Time
	var lastDone atomic.Int64

	enter := func(n int) bool {
		for i := 0; i < n; i++ {
			if err := d.SecondaryEnterContext(nil, nil); err != nil {
				// The only error a dead-with-flag-down primary can
				// produce is none: the vacuous path returns nil. Any
				// error is a recovery failure.
				violations.Add(1)
				return false
			}
			if inside.Add(1) != 1 {
				violations.Add(1)
			}
			inside.Add(-1)
			d.SecondaryExit()
			recovered.Add(1)
		}
		return true
	}

	var wg sync.WaitGroup
	for i := 0; i < secondaries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := enter(liveEach)
			liveRemaining.Add(-1)
			if !ok {
				return
			}
			<-dead // wait for the kill so post-death entries are measured
			enter(deadEach)
			el := time.Since(killedAt).Nanoseconds()
			for {
				cur := lastDone.Load()
				if el <= cur || lastDone.CompareAndSwap(cur, el) {
					break
				}
			}
		}()
	}

	// The primary serves the live phase, then vanishes: no Close, no
	// more polls — the flag is down (last PrimaryExit lowered it), the
	// mailbox just goes silent.
	for i := 0; liveRemaining.Load() > 0; i++ {
		if i%4 == 0 {
			d.PrimaryEnter()
			if inside.Add(1) != 1 {
				violations.Add(1)
			}
			inside.Add(-1)
			d.PrimaryExit()
		} else {
			d.Fence().Poll()
		}
		runtime.Gosched()
	}
	killedAt = time.Now()
	close(dead)
	wg.Wait()

	row.Entries = secondaries * (liveEach + deadEach)
	row.Recovered = int(recovered.Load())
	row.Violations = int(violations.Load())
	snap := d.Fence().ObsSnapshot()
	row.WatchdogTrips = snap.Counters["watchdog_trips"]
	row.RecoverNs = lastDone.Load()
	row.Pass = row.Violations == 0 && row.Recovered == row.Entries && row.WatchdogTrips >= 1
	if !row.Pass {
		row.Detail = fmt.Sprintf("%d violations, %d/%d entries, %d trips",
			row.Violations, row.Recovered, row.Entries, row.WatchdogTrips)
	}
	return row
}

// chaosRWLock runs the asymmetric reader-writer lock (ARW, or ARW+
// with the waiting heuristic) under dropped reader acknowledgements
// and stalled writer waits. Invariant: a reader under the read lock
// never observes a torn write — the writer increments every array
// element under the write lock, so all elements must always be equal.
func chaosRWLock(seed uint64, heuristic bool, d time.Duration) ChaosRow {
	name := "arw"
	if heuristic {
		name = "arw+"
	}
	row := ChaosRow{Seed: seed, Protocol: name}
	in := fault.New(seed)
	in.Arm(fault.LockAck, fault.Plan{Prob: 0.3, Drop: true})
	in.Arm(fault.LockWriterWait, fault.Plan{Prob: 0.2, StallYields: 10})

	opts := []rwlock.Option{
		rwlock.WithWaitPolicy(chaosWait()),
		rwlock.WithFaults(in),
	}
	if heuristic {
		opts = append(opts, rwlock.WithWaitingHeuristic(0))
	}
	l := rwlock.New(core.ModeAsymmetricSW, core.ZeroCosts(), opts...)

	const threads = 4
	var arr [4]int64
	var stop atomic.Bool
	var violations atomic.Int32
	var ops atomic.Int64

	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		r := l.NewReader()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				if n%64 == 63 {
					r.LockWrite()
					for j := range arr {
						arr[j]++
					}
					r.UnlockWrite()
				} else {
					r.Lock()
					v := arr[0]
					for j := 1; j < len(arr); j++ {
						if arr[j] != v {
							violations.Add(1)
						}
					}
					r.Unlock()
				}
				ops.Add(1)
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()

	row.Entries = int(ops.Load())
	row.Recovered = row.Entries
	row.Violations = int(violations.Load())
	row.FaultFires = in.Fires(fault.LockAck) + in.Fires(fault.LockWriterWait)
	row.WatchdogTrips = l.Stats.WatchdogTrips.Load()
	row.Pass = row.Violations == 0 && row.Entries > 0
	if !row.Pass {
		row.Detail = fmt.Sprintf("%d torn reads over %d ops", row.Violations, row.Entries)
	}
	return row
}

// chaosSched runs a fork-join reduction on the work-stealing scheduler
// with dropped victim polls and frozen thieves. Invariants: the
// reduction is exact (a lost task or lost wakeup yields a wrong sum or
// a hang) and every abandoned steal request is adopted rather than
// stranded.
func chaosSched(seed uint64, procs int) ChaosRow {
	row := ChaosRow{Seed: seed, Protocol: "sched"}
	in := fault.New(seed)
	in.Arm(fault.DequePoll, fault.Plan{Prob: 0.2, Drop: true})
	in.Arm(fault.DequeSteal, fault.Plan{Prob: 0.3, StallYields: 5, Drop: true})

	rt := sched.New(procs, core.ModeAsymmetricSW, core.ZeroCosts(),
		sched.WithWaitPolicy(chaosWait()),
		sched.WithFaults(in))

	const n = 1 << 12
	var sum atomic.Int64
	var rec func(w *sched.Worker, lo, hi int)
	rec = func(w *sched.Worker, lo, hi int) {
		if hi-lo <= 16 {
			s := int64(0)
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			sum.Add(s)
			// Yield at every leaf so idle workers actually run (on a
			// single CPU the whole reduction otherwise finishes inside
			// one scheduling quantum and no steal ever happens), then
			// poll so their requests are answered promptly.
			runtime.Gosched()
			w.Poll()
			return
		}
		mid := (lo + hi) / 2
		w.Do(
			func(w *sched.Worker) { rec(w, lo, mid) },
			func(w *sched.Worker) { rec(w, mid, hi) },
		)
	}
	rt.Run(func(w *sched.Worker) { rec(w, 0, n) })

	want := int64(n) * int64(n-1) / 2
	if got := sum.Load(); got != want {
		row.Violations = 1
		row.Detail = fmt.Sprintf("sum %d, want %d (lost task)", got, want)
	}
	st := rt.Stats()
	row.Entries = int(st.Tasks)
	row.Recovered = row.Entries
	row.FaultFires = in.Fires(fault.DequePoll) + in.Fires(fault.DequeSteal)
	row.WatchdogTrips = st.WatchdogTrips
	row.StealAbandons = st.StealAbandons
	row.Pass = row.Violations == 0
	return row
}

// pollFastPath times the primary's no-request poll with the fault
// hooks compiled in but disarmed — the control measurement proving the
// injection layer costs nothing when unset.
func pollFastPath() float64 {
	var m signals.Mailbox
	const iters = 2_000_000
	best := 0.0
	for round := 0; round < 3; round++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			m.Poll()
		}
		ns := float64(time.Since(start).Nanoseconds()) / iters
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// RunChaos executes every protocol family under every configured fault
// seed and measures the disarmed-hook poll fast path.
func RunChaos(opt Options) (*ChaosResult, error) {
	seeds := opt.FaultSeeds
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3}
	}
	cell := opt.CellDuration
	if cell <= 0 {
		cell = 30 * time.Millisecond
	}
	procs := opt.Procs
	if procs < 2 {
		procs = 2
	}
	res := &ChaosResult{}
	for _, seed := range seeds {
		res.Rows = append(res.Rows,
			chaosDekker(seed),
			chaosDekkerKill(seed),
			chaosRWLock(seed, false, cell),
			chaosRWLock(seed, true, cell),
			chaosSched(seed, procs),
		)
	}
	res.PollFastPathNs = pollFastPath()
	var trips, fires, abandons uint64
	for _, row := range res.Rows {
		trips += row.WatchdogTrips
		fires += row.FaultFires
		abandons += row.StealAbandons
	}
	res.Obs.PutCounter("watchdog_trips", trips)
	res.Obs.PutCounter("fault_fires", fires)
	res.Obs.PutCounter("steal_abandons", abandons)
	res.Obs.PutGauge("poll_fastpath_ns", res.PollFastPathNs)
	return res, nil
}

// Table renders the chaos report.
func (r *ChaosResult) Table() *stats.Table {
	t := stats.NewTable(
		"Chaos: paper invariants under seeded fault schedules",
		"seed", "protocol", "entries", "recovered", "violations",
		"fires", "trips", "abandons", "recover", "verdict")
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL: " + row.Detail
		}
		rec := ""
		if row.RecoverNs > 0 {
			rec = time.Duration(row.RecoverNs).Round(time.Microsecond).String()
		}
		t.AddRow(row.Seed, row.Protocol, row.Entries, row.Recovered,
			row.Violations, row.FaultFires, row.WatchdogTrips,
			row.StealAbandons, rec, verdict)
	}
	t.AddNote("invariants: mutual exclusion, serialization visibility, no lost wakeups")
	t.AddNote(fmt.Sprintf("disarmed-hook poll fast path: %.2f ns/op", r.PollFastPathNs))
	return t
}
