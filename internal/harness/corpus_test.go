package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/synth"
	"repro/internal/workloads"
)

// TestRunCorpusSmall pushes a small generated corpus through the full
// pipeline and checks the aggregate invariants: every scenario resolves,
// nothing errors, and the must-stay-zero contract counter stays zero (no
// spliced repair refuted by the exact engine).
func TestRunCorpusSmall(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 10
	}
	res, err := RunCorpus(CorpusOptions{
		Scenarios: n,
	})
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	if len(res.Rows) != n {
		t.Fatalf("collected %d scenarios, want %d (scanned %d seeds)", len(res.Rows), n, res.SeedsScanned)
	}
	if res.SeedsScanned < n {
		t.Errorf("SeedsScanned = %d < %d scenarios", res.SeedsScanned, n)
	}
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Errorf("seed %d (%s): %v", row.Seed, row.Name, row.Err)
		}
	}
	if res.ContractFailures != 0 {
		t.Fatalf("ContractFailures = %d: a reported repair failed exact re-verification", res.ContractFailures)
	}
	if res.Resolved() != n {
		t.Errorf("resolved %d of %d (repaired=%d safe=%d unrepairable=%d errors=%d)",
			res.Resolved(), n, res.Repaired, res.AlreadySafe, res.Unrepairable, res.Errors)
	}
	// Every repaired or already-safe scenario paid for its exact
	// end-to-end re-verification.
	for _, row := range res.Rows {
		if row.Err == nil && !row.Unrepairable && row.ReverifyStates == 0 {
			t.Errorf("seed %d: verdict accepted without re-verification states", row.Seed)
		}
	}
	// The planted-race mix must yield actual repairs, not just
	// safe/unrepairable verdicts — otherwise the sweep never exercises
	// splice-and-re-verify.
	if res.Repaired == 0 {
		t.Errorf("no scenario was repaired (safe=%d unrepairable=%d)", res.AlreadySafe, res.Unrepairable)
	}
	if res.ExactChecks == 0 {
		t.Error("the sweep ran no exact checks")
	}
	if res.RepairsPerMinute() <= 0 {
		t.Errorf("RepairsPerMinute = %v, want > 0", res.RepairsPerMinute())
	}
	if res.Table().Rows() != 1 {
		t.Errorf("corpus table rows = %d, want 1", res.Table().Rows())
	}
}

// TestRunSynthThroughput runs the experiment at test scale and checks
// its acceptance contract: every scenario collected and resolved, no
// errors, no contract failures, and a throughput to report.
func TestRunSynthThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("a full test-scale corpus sweep")
	}
	opt := QuickDefaults()
	opt.Scale = workloads.ScaleTest
	res := RunSynthThroughput(opt)
	c := res.Corpus
	if !res.AllPass() {
		t.Fatalf("AllPass = false: %d of %d rows, %d resolved, %d errors, %d contract failures",
			len(c.Rows), res.Scenarios, c.Resolved(), c.Errors, c.ContractFailures)
	}
	if c.RepairsPerMinute() <= 0 || c.ExactChecksPerRepair() < 1 {
		t.Errorf("repairs/min %.0f, exact checks/repair %.2f", c.RepairsPerMinute(), c.ExactChecksPerRepair())
	}
	if res.Table().Rows() != 1 {
		t.Errorf("throughput table rows = %d, want 1", res.Table().Rows())
	}
}

// TestRunCorpusDividesCores: with Synth.Workers left 0 a sweep gives
// each exploration its pool worker's share of GOMAXPROCS, never less
// than one worker, and an explicit Synth.Workers is kept.
func TestRunCorpusDividesCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		pool, synthWorkers, want int
	}{
		{pool: 2, want: 1},
		{pool: 1, want: 2},
		{pool: 4, want: 1},
		{pool: 0, want: 1},
		{pool: 2, synthWorkers: 3, want: 3},
	} {
		res, err := RunCorpus(CorpusOptions{Scenarios: 3, Workers: tc.pool, Synth: synth.Options{Workers: tc.synthWorkers}})
		if err != nil {
			t.Fatalf("RunCorpus: %v", err)
		}
		if got := res.Obs.Counters["corpus_explore_workers"]; got != uint64(tc.want) {
			t.Errorf("pool %d, Synth.Workers %d: explorations ran on %d workers, want %d", tc.pool, tc.synthWorkers, got, tc.want)
		}
		if res.Errors != 0 || res.Obs.Counters["frontier_nodes"] == 0 {
			t.Errorf("pool %d: %d errors, frontier_nodes %d", tc.pool, res.Errors, res.Obs.Counters["frontier_nodes"])
		}
	}
}

// TestRunCorpusConcurrentSweeps: two sweeps at once, whose explorations
// all draw machines from and return them to litmus's one process-wide
// free list, report the rows each reports alone, checks and states
// included (one worker an exploration makes both deterministic). Run it
// under -race: the list is what the sweeps share.
func TestRunCorpusConcurrentSweeps(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 6
	}
	seeds := []int64{7, 40}
	sweep := func(seed int64) []string {
		res, err := RunCorpus(CorpusOptions{Scenarios: n, Seed: seed, Workers: 2, Synth: synth.Options{Workers: 1}})
		if err != nil {
			t.Errorf("RunCorpus(seed %d): %v", seed, err)
			return nil
		}
		var rows []string
		for _, r := range res.Rows {
			rows = append(rows, fmt.Sprintf("%d %s: fences=%d cost=%g safe=%v unrepairable=%v exact=%d states=%d reverify=%d err=%v",
				r.Seed, r.Name, r.Fences, r.Cost, r.AlreadySafe, r.Unrepairable, r.ExactChecks, r.States, r.ReverifyStates, r.Err))
		}
		return rows
	}
	alone := make([][]string, len(seeds))
	for i, s := range seeds {
		alone[i] = sweep(s)
	}
	together := make([][]string, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = sweep(s)
		}()
	}
	wg.Wait()
	for i, s := range seeds {
		if !reflect.DeepEqual(together[i], alone[i]) {
			t.Errorf("seed %d: concurrent rows\n%v\ndiffer from the rows alone\n%v", s, together[i], alone[i])
		}
	}
}
