package harness

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/litmus"
	"repro/internal/programs"
	"repro/internal/stats"
	"repro/internal/tso"
)

// ResumeRow is one workload's checkpoint/resume report: the cost of
// checkpointing relative to a plain run of the same exploration, and
// whether a kill-and-resume cycle reproduced the uninterrupted verdict
// exactly.
type ResumeRow struct {
	Name   string
	States int
	// PlainNs / CkptNs are the best-of-reps exploration times without
	// and with periodic checkpointing (3 snapshots per run: the cadence
	// is a quarter of the space, and a run that drains writes no final
	// one).
	PlainNs int64
	CkptNs  int64
	// Overhead is CkptNs/PlainNs: the guarded number — snapshots are
	// supposed to cost a bounded fraction of the exploration, not
	// multiples of it.
	Overhead float64
	// Writes is how many snapshots the checkpointed run committed, all
	// of them periodic.
	Writes uint64
	// CkptAgree: the checkpointed run's verdict matches the plain run
	// (checkpointing must observe, never perturb).
	CkptAgree bool
	// ResumeExact: a run crashed at its first checkpoint commit and
	// resumed from the snapshot reproduced the plain run's outcome
	// multiset, deadlock count, violation verdict, and state count.
	ResumeExact bool
	Pass        bool
}

// ResumeResult is the litmus_resume experiment: checkpoint overhead and
// crash-recovery fidelity over the paper's protocols.
type ResumeResult struct {
	Rows []ResumeRow
	// Obs aggregates the checkpointed and resumed runs' engine counters
	// (checkpoint_writes/bytes, resumed_states, visited statistics).
	Observed
}

// RunResume measures the durable-checkpoint machinery on the classic
// protocols: each workload runs plain, runs with 3 periodic snapshots
// (timing both), then is killed at its first snapshot commit by an
// injected crash and resumed — the resumed result must be exactly the
// plain one. workers sizes every exploration pool (0 = GOMAXPROCS).
func RunResume(workers int) *ResumeResult {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4

	const reps = 3
	res := &ResumeResult{}
	mutex := []litmus.Property{litmus.MutualExclusion}

	add := func(name string, p0, p1 *tso.Program, props []litmus.Property) {
		build := func() *tso.Machine { return tso.NewMachine(cfg, p0, p1) }
		base := litmus.Options{Properties: props, Workers: workers}

		plain := litmus.Explore(build, base)
		plainNs := plain.Elapsed.Nanoseconds()
		for i := 1; i < reps; i++ {
			if e := litmus.Explore(build, base).Elapsed.Nanoseconds(); e < plainNs {
				plainNs = e
			}
		}

		dir, err := os.MkdirTemp("", "lbmf-resume-*")
		if err != nil {
			res.Rows = append(res.Rows, ResumeRow{Name: name})
			return
		}
		defer os.RemoveAll(dir)
		every := plain.States/4 + 1
		ckOpts := base
		ckOpts.Checkpoint = litmus.CheckpointOptions{Dir: dir, EveryStates: every}

		var ck litmus.Result
		var ckptNs int64
		for i := 0; i < reps; i++ {
			r := litmus.Explore(build, ckOpts)
			if e := r.Elapsed.Nanoseconds(); i == 0 || e < ckptNs {
				ckptNs = e
				ck = r
			}
		}

		// Kill-and-resume: crash at the first commit, resume from the
		// snapshot, demand the plain run's exact result.
		crashDir, err := os.MkdirTemp("", "lbmf-resume-crash-*")
		if err != nil {
			res.Rows = append(res.Rows, ResumeRow{Name: name})
			return
		}
		defer os.RemoveAll(crashDir)
		crashOpts := base
		crashOpts.Checkpoint = litmus.CheckpointOptions{Dir: crashDir, EveryStates: every}
		crashOpts.Faults = fault.New(1)
		crashOpts.Faults.Arm(fault.CkptCommit, fault.Plan{Prob: 1, Drop: true, MaxFires: 1})
		dead := litmus.Explore(build, crashOpts)
		crashOpts.Faults = nil
		resumed, rerr := litmus.Resume(crashDir, build, crashOpts)

		row := ResumeRow{
			Name:    name,
			States:  plain.States,
			PlainNs: plainNs,
			CkptNs:  ckptNs,
			Writes:  ck.Obs.Counters["checkpoint_writes"],
			CkptAgree: sameVerdict(plain, ck) &&
				ck.States == plain.States,
			ResumeExact: dead.Crashed && rerr == nil &&
				sameVerdict(plain, resumed) &&
				resumed.States == plain.States,
		}
		if plainNs > 0 {
			row.Overhead = float64(ckptNs) / float64(plainNs)
		}
		row.Pass = row.CkptAgree && row.ResumeExact && row.Writes > 0
		res.Obs.Merge(ck.Obs)
		if rerr == nil {
			res.Obs.Merge(resumed.Obs)
		}
		res.Rows = append(res.Rows, row)
	}

	sb := litmus.CatalogEntry("SB").Build()
	add("sb", sb[0], sb[1], nil)
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	add("dekker-nofence", p0, p1, mutex)
	p0, p1 = programs.DekkerPair(programs.DekkerMfence)
	add("dekker-mfence", p0, p1, mutex)
	p0, p1 = programs.PetersonPair(programs.DekkerNoFence)
	add("peterson-nofence", p0, p1, mutex)

	return res
}

// sameVerdict compares everything a resumed or checkpointed run must
// preserve of the reference: outcome multiset, deadlocks, violation
// verdict, truncation.
func sameVerdict(a, b litmus.Result) bool {
	return reflect.DeepEqual(a.Outcomes, b.Outcomes) &&
		a.Deadlocks == b.Deadlocks &&
		(a.Violations > 0) == (b.Violations > 0) &&
		a.Truncated == b.Truncated
}

// AllPass reports whether every row's checkpointed and resumed runs
// reproduced the plain verdict.
func (r *ResumeResult) AllPass() bool {
	return allPass(r.Rows, func(row ResumeRow) bool { return row.Pass })
}

// Table renders the checkpoint/resume report.
func (r *ResumeResult) Table() *stats.Table {
	t := stats.NewTable(
		"Checkpoint/resume: snapshot overhead and kill-recovery fidelity",
		"workload", "states", "plain", "checkpointed", "overhead", "snapshots", "verdict")
	for _, row := range r.Rows {
		verdict := "PASS"
		switch {
		case !row.CkptAgree:
			verdict = "FAIL: checkpointed run diverged"
		case !row.ResumeExact:
			verdict = "FAIL: resume not exact"
		case row.Writes == 0:
			verdict = "FAIL: no snapshot committed"
		}
		t.AddRow(row.Name, row.States,
			time.Duration(row.PlainNs).Round(time.Microsecond),
			time.Duration(row.CkptNs).Round(time.Microsecond),
			fmt.Sprintf("%.2fx", row.Overhead),
			row.Writes, verdict)
	}
	t.AddNote("each workload: plain run, 3-snapshot checkpointed run (same verdict demanded),")
	t.AddNote("then a run killed at its first commit and resumed — exact state count and")
	t.AddNote("outcome multiset required; overhead is checkpointed/plain wall time")
	return t
}
