package litmus

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/programs"
	"repro/internal/tso"
)

// drainSlotPools empties the recycled-table pool, so the next run
// allocates each of its tables.
func drainSlotPools() {
	tableMu.Lock()
	defer tableMu.Unlock()
	clear(tableFree)
}

// catalogMachine builds the named catalog test's machine.
func catalogMachine(name string) func() *tso.Machine {
	ct := CatalogEntry(name)
	progs := ct.Build()
	return func() *tso.Machine { return tso.NewMachine(ct.Config, progs...) }
}

// TestVisitedRecycledTableIsCleared: a table taken from the pool holds
// nothing of the run that retired it, and leaves the pool, so no two
// stripes get the same table. (A stale entry makes a new state look
// visited, and a table full of them never ends a probe.)
func TestVisitedRecycledTableIsCleared(t *testing.T) {
	drainSlotPools()
	retired := map[*slot]bool{}
	for range 4 {
		dirty := make([]slot, minPooled)
		for i := range dirty {
			dirty[i] = slot{h1: uint64(i), h2: 1, sleepAcc: 3, meta: slotOccupied | slotFinalized}
		}
		retired[&dirty[0]] = true
		retireSlots(dirty)
	}
	for range 4 {
		tab := newSlots(minPooled)
		if !retired[&tab[0]] {
			t.Fatal("a retired table was handed out twice, or not at all")
		}
		delete(retired, &tab[0])
		for i, sl := range tab {
			if sl != (slot{}) {
				t.Fatalf("recycled table slot %d holds %+v", i, sl)
			}
		}
	}
}

// TestVisitedTablesRecycledAcrossRuns runs explorations of different
// programs back to back on one goroutine, so every table a run takes
// from the pools was retired by another run, and holds each to the same
// run started from empty pools, state for state and outcome for outcome.
// The legs cover both key modes, a memory budget whose evictions retable
// a stripe, and checkpointed runs killed at their first commit and
// resumed with a different worker count (1 → 2 and 2 → 1), which
// restores the records into the other stripe count.
func TestVisitedTablesRecycledAcrossRuns(t *testing.T) {
	n0, n1 := programs.DekkerPair(programs.DekkerNoFence)
	nofence := machineFor(n0, n1)
	m0, m1 := programs.DekkerPair(programs.DekkerMfence)
	mfence := machineFor(m0, m1)
	twoW := catalogMachine("2+2W")
	mutex := []Property{MutualExclusion}

	resumed := func(build func() *tso.Machine, from, to int) func(*testing.T) Result {
		return func(t *testing.T) Result {
			dir := t.TempDir()
			opts := Options{Properties: mutex, Workers: from, Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 250}}
			opts.Faults = crashInjector(fault.CkptCommit, 1)
			if run := Explore(build, opts); !run.Crashed {
				t.Fatalf("kill never fired (states=%d)", run.States)
			}
			opts.Workers, opts.Faults = to, nil
			res, err := Resume(dir, build, opts)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			return res
		}
	}
	explore := func(build func() *tso.Machine, opts Options) func(*testing.T) Result {
		return func(*testing.T) Result { return Explore(build, opts) }
	}
	legs := []struct {
		name string
		run  func(*testing.T) Result
	}{
		{"dekker-nofence", explore(nofence, Options{Properties: mutex, Workers: 1})},
		{"2+2W", explore(twoW, Options{Workers: 1})},
		{"dekker-mfence/collapse", explore(mfence, Options{Properties: mutex, Workers: 1, Collapse: true})},
		{"dekker-nofence/budget", explore(nofence, Options{Properties: mutex, Workers: 1, MemBudget: 1 << 12})},
		{"dekker-nofence/resume-1-to-2", resumed(nofence, 1, 2)},
		{"dekker-nofence/resume-2-to-1", resumed(nofence, 2, 1)},
	}

	fresh := make([]Result, len(legs))
	for i, l := range legs {
		drainSlotPools()
		fresh[i] = l.run(t)
	}
	if fresh[3].Obs.Counters["visited_spill_events"] == 0 {
		t.Fatal("the budget leg never spilled")
	}
	for _, i := range []int{3, 4, 5} { // the same space as leg 0
		assertSameVerdict(t, fresh[i], fresh[0], true)
	}
	for round := 0; round < 2; round++ {
		for i := len(legs) - 1; i >= 0; i-- {
			t.Run(legs[i].name, func(t *testing.T) {
				assertSameVerdict(t, legs[i].run(t), fresh[i], true)
			})
		}
	}
}

// TestVisitedPoolIsBounded: the pool keeps maxPooled slots of each
// length from minPooled to maxPooled and nothing of other lengths,
// however many tables are retired.
func TestVisitedPoolIsBounded(t *testing.T) {
	drainSlotPools()
	defer drainSlotPools()
	for n := minPooled / 2; n <= 2*maxPooled; n *= 2 {
		for range 2*maxPooled/n + 2 {
			retireSlots(make([]slot, n))
		}
	}
	kept := 0
	for n := minPooled / 2; n <= 2*maxPooled; n *= 2 {
		want := maxPooled / n
		if n < minPooled || n > maxPooled {
			want = 0
		}
		if got := len(tableFree[n]); got != want {
			t.Errorf("tables of %d slots: %d pooled, want %d", n, got, want)
		}
		kept += len(tableFree[n]) * n
	}
	if kept != 10*maxPooled {
		t.Errorf("the pool keeps %d slots, want %d", kept, 10*maxPooled)
	}
}

// TestVisitedWarmOneWorkerTableBytes pins what a warm one-worker run's
// visited set allocates: it replays the claims of the 2+2W catalog
// exploration (265 states, the size of a corpus candidate check) into a
// one-worker set, then closes it. With its tables of 64 slots and more
// recycled, the set allocates its one stripe and the four tables below
// that, 1,504 B in five objects, where 256 stripes with a fresh table in
// most of them came to 174 allocations and 35.6 KB. Every measured
// replay follows two collections, which would have emptied a sync.Pool:
// what is recycled must not depend on when the collector ran.
func TestVisitedWarmOneWorkerTableBytes(t *testing.T) {
	type pair struct{ h1, h2 uint64 }
	var keys []pair
	t.Cleanup(func() { pairFilter = nil })
	pairFilter = func(h1, h2 uint64, _ []byte) (uint64, uint64) {
		keys = append(keys, pair{h1, h2})
		return h1, h2
	}
	ref := Explore(catalogMachine("2+2W"), Options{Workers: 1})
	pairFilter = nil
	if ref.States != 265 {
		t.Fatalf("2+2W explored %d states, want 265", ref.States)
	}

	e := &engine{plan: plan{maxStates: 1 << 20}}
	replay := func() {
		e.states.Store(0)
		e.visited.init(1, 0, 0, true, false)
		for _, k := range keys {
			e.claim(k.h1, k.h2, nil, 0)
		}
		if e.states.Load() != int64(ref.States) {
			t.Fatalf("replay claimed %d states, want %d", e.states.Load(), ref.States)
		}
		e.visited.close()
	}
	if n := testing.AllocsPerRun(50, replay); n > 5 {
		t.Errorf("a warm one-worker visited set allocates %.0f objects, want its stripe and 4 small tables", n)
	}
	const want = 64 + 24*(4+8+16+32) // the stripe and the tables below minPooled
	for i := range 10 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b > want {
			t.Fatalf("replay %d after two collections: a warm one-worker visited set allocates %d B, want %d", i, b, want)
		}
	}
}
