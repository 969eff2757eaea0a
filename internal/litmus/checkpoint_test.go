package litmus

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/programs"
	"repro/internal/tso"
)

// crashInjector arms an in-process "SIGKILL" at the given checkpoint
// point: the first after arrival fires unconditionally and the run
// aborts with Result.Crashed, leaving the on-disk state exactly as a
// real kill at that instant would.
func crashInjector(p fault.Point, after uint64) *fault.Injector {
	in := fault.New(1)
	in.Arm(p, fault.Plan{Prob: 1, Drop: true, MinArrivals: after, MaxFires: 1})
	return in
}

// assertSameVerdict compares the parts of two Results that every
// crash/resume cycle must preserve exactly: outcomes, deadlocks, and
// the violation verdict. States/Transitions/Violations are compared
// only when exact is set (they are scheduling-dependent under
// Reduction).
func assertSameVerdict(t *testing.T, got, want Result, exact bool) {
	t.Helper()
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Errorf("Outcomes diverge:\nresumed:   %v\nreference: %v", got.Outcomes, want.Outcomes)
	}
	if got.Deadlocks != want.Deadlocks {
		t.Errorf("Deadlocks=%d, reference %d", got.Deadlocks, want.Deadlocks)
	}
	if (got.FirstViolation != nil) != (want.FirstViolation != nil) {
		t.Errorf("violation verdict %v, reference %v", got.FirstViolation, want.FirstViolation)
	}
	if got.Truncated != want.Truncated {
		t.Errorf("Truncated=%v, reference %v", got.Truncated, want.Truncated)
	}
	if exact {
		if got.States != want.States {
			t.Errorf("States=%d, reference %d", got.States, want.States)
		}
		if got.Transitions != want.Transitions {
			t.Errorf("Transitions=%d, reference %d", got.Transitions, want.Transitions)
		}
		if got.Violations != want.Violations {
			t.Errorf("Violations=%d, reference %d", got.Violations, want.Violations)
		}
	}
}

// ringSB3 is store buffering around a ring of three threads, with its C_3
// symmetry: thread i raises flag[i], names itself in a shared pid-valued
// word, then reads its successor's flag and the pid word into a pid
// register. Small enough to kill at every commit under the race detector,
// and every renaming a rotation does (block words, pid word, pid
// register, store buffers, caches) happens in it. With bystander, a
// fourth thread outside the ring runs beside it on words of its own and
// passes through a core state (PC 4, r1 = 0, r2 = 1) that ring member 0
// also takes; a rotation relabels the member's r2 and leaves the
// bystander's alone.
func ringSB3(bystander bool) (func() *tso.Machine, *tso.Symmetry) {
	// Word 0 stays out of the block: an unset LEAddr is 0, and renaming
	// moves it like any block address, which would split every orbit.
	const n, flag0, turn = 3, arch.Addr(1), arch.Addr(5)
	progs := make([]*tso.Program, n)
	ring := make([]arch.ProcID, n)
	for i := range progs {
		ring[i] = arch.ProcID(i)
		progs[i] = tso.NewBuilder(fmt.Sprintf("ring%d", i)).
			StoreI(flag0+arch.Addr(i), 1).
			StoreI(turn, arch.Word(i+1)).
			Load(1, flag0+arch.Addr((i+1)%n)).
			Load(2, turn).
			Halt().
			Build()
	}
	if bystander {
		progs = append(progs, tso.NewBuilder("bystander").
			StoreI(6, 1).
			Nop().
			Load(1, 7).
			Load(2, 6).
			Halt().
			Build())
	}
	cfg := arch.DefaultConfig()
	cfg.Procs, cfg.MemWords, cfg.StoreBufferDepth = len(progs), 8, 2
	if bystander {
		cfg.StoreBufferDepth = 1 // four threads: keep the space in the tens of thousands
	}
	sym := &tso.Symmetry{
		Procs:    ring,
		Blocks:   []tso.SymBlock{{Base: flag0, Stride: 1}},
		PidWords: []arch.Addr{turn},
		PidRegs:  []tso.Reg{2},
	}
	return func() *tso.Machine { return tso.NewMachine(cfg, progs...) }, sym
}

// TestCheckpointResumeDifferential is the crash/resume soundness pin:
// for every catalog test plus the Dekker variants, under each engine
// configuration that puts a different record on disk — hashed pairs
// (plain, reduction), collapsed tuples (collapse), and either one with
// spilled segments appended verbatim (budget, budget+collapse) — a run
// killed at a fault-scheduled checkpoint commit and resumed from disk
// must produce the same result as an uninterrupted run, at EVERY commit
// ordinal the run reaches. The hashed and the collapsed leg must also
// agree with each other kill for kill: the key mode is a representation,
// not a semantics. One more space, a ring of three store-buffering
// threads (ringSB3), runs a single leg of its own, collapsed tuples under
// its C_3 symmetry: the case where the intern tables come back warm from
// the file while every worker's canonicalizer starts with empty id maps,
// so the first rotated keys after a resume go down the definition against
// ids the maps have never seen assigned. (peterson3, 460,188 orbits with
// one-entry buffers, passes the same leg in 7 s and in 3 min under the
// race detector, which is why it is not the space here.)
func TestCheckpointResumeDifferential(t *testing.T) { checkpointResumeDifferential(t) }

// TestCheckpointResumeDifferentialHeldFrame runs the same matrix with
// every worker keying frames one ahead from its first claim (run): the
// frame a worker holds at each barrier must reach the snapshot, or the
// resumed run misses its subtree.
func TestCheckpointResumeDifferentialHeldFrame(t *testing.T) {
	pipelineFromFirstClaim(t)
	checkpointResumeDifferential(t)
}

func checkpointResumeDifferential(t *testing.T) {
	type space struct {
		name  string
		build func() *tso.Machine
		props []Property
		sym   *tso.Symmetry // runs the symmetry leg, and only that one
	}
	var spaces []space
	for _, ct := range Catalog() {
		progs := ct.Build()
		cfg := arch.DefaultConfig()
		cfg.Procs = len(progs)
		cfg.MemWords = 16
		cfg.StoreBufferDepth = 4
		spaces = append(spaces, space{
			name:  "catalog/" + ct.Name,
			build: func() *tso.Machine { return tso.NewMachine(cfg, progs...) },
		})
	}
	for _, v := range []programs.DekkerVariant{programs.DekkerNoFence, programs.DekkerMfence} {
		p0, p1 := programs.DekkerPair(v)
		spaces = append(spaces, space{
			name:  "dekker/" + v.String(),
			build: machineFor(p0, p1),
			props: []Property{MutualExclusion},
		})
	}
	ring, ringSym := ringSB3(false)
	spaces = append(spaces, space{name: "ring-sb3", build: ring, sym: ringSym})

	legs := []struct {
		name  string
		mod   func(*Options)
		keys  string
		exact bool
	}{
		{"plain", func(o *Options) {}, KeysHashed, true},
		{"collapse", func(o *Options) { o.Collapse = true }, KeysCollapsed, true},
		{"budget", func(o *Options) { o.MemBudget = 1 << 12 }, KeysHashed, true},
		{"budget+collapse", func(o *Options) { o.MemBudget, o.Collapse = 1<<12, true }, KeysCollapsed, true},
		{"reduction", func(o *Options) { o.Reduction = true }, KeysHashed, false},
		{"symmetry", func(o *Options) { o.Collapse = true }, KeysCollapsed, true},
	}

	for _, sp := range spaces {
		sp := sp
		// resumed[leg] holds the leg's resumed Result per kill ordinal.
		resumed := make(map[string][]Result)
		for _, leg := range legs {
			leg := leg
			if (leg.name == "symmetry") != (sp.sym != nil) {
				continue
			}
			t.Run(sp.name+"/"+leg.name, func(t *testing.T) {
				base := Options{Properties: sp.props, Workers: 1, Symmetry: sp.sym}
				leg.mod(&base)
				ref := Explore(sp.build, base)
				if ref.Keys() != leg.keys {
					t.Fatalf("reference ran on %s keys, the leg is meant to cover %s", ref.Keys(), leg.keys)
				}

				// Size the cadence to the space so even tiny reduced
				// spaces reach several periodic commits (a drained run
				// writes no final one). Kill at the 1st, 2nd, ... commit
				// until a run drains without reaching the ordinal.
				every := ref.States/5 + 1
				for kill := uint64(0); ; kill++ {
					dir := t.TempDir()
					crashed := base
					crashed.Checkpoint = CheckpointOptions{Dir: dir, EveryStates: every}
					crashed.Faults = crashInjector(fault.CkptCommit, kill)
					run := Explore(sp.build, crashed)
					if !run.Crashed {
						if kill < 2 {
							t.Fatalf("only %d commit(s) to kill at (states=%d, every=%d)", kill, run.States, every)
						}
						if got := run.Obs.Counters["checkpoint_writes"]; got != kill {
							t.Errorf("drained run committed %d snapshots, want its %d periodic ones only", got, kill)
						}
						assertSameVerdict(t, run, ref, leg.exact)
						break
					}
					ck, err := loadCheckpoint(filepath.Join(dir, ckptFileName))
					if err != nil {
						t.Fatalf("kill at commit %d: %v", kill+1, err)
					}
					if got := keysName(ck.hdr.KeyWidth); got != leg.keys || ck.hdr.Keys != leg.keys {
						t.Fatalf("kill at commit %d: file holds %s keys (header says %q), want %s", kill+1, got, ck.hdr.Keys, leg.keys)
					}

					// Resume with a different worker count: the checkpoint
					// must be engine-shape independent.
					resumeOpts := base
					resumeOpts.Workers = 4
					res, err := Resume(dir, sp.build, resumeOpts)
					if err != nil {
						t.Fatalf("kill at commit %d: Resume: %v", kill+1, err)
					}
					if res.Obs.Gauges["resumed"] != 1 {
						t.Error("resumed gauge not set")
					}
					if res.Keys() != leg.keys {
						t.Errorf("kill at commit %d: resumed on %s keys, the file holds %s", kill+1, res.Keys(), leg.keys)
					}
					assertSameVerdict(t, res, ref, leg.exact)
					if sp.sym != nil && res.Obs.Counters["symmetry_map_misses"] == 0 {
						t.Errorf("kill at commit %d: the resumed run learned no id pair: its canonicalizers cannot have started empty", kill+1)
					}
					if res.Violations > 0 {
						m := Replay(sp.build, res.ViolationTrace)
						if !m.CSViolation {
							t.Error("resumed violation trace does not replay to a violation")
						}
					}
					resumed[leg.name] = append(resumed[leg.name], res)
				}
			})
		}
		// Both absent when -run selected a single leg.
		if h, c := resumed["plain"], resumed["collapse"]; h != nil && c != nil {
			if len(h) != len(c) {
				t.Errorf("%s: hashed leg was killed at %d commits, collapsed at %d", sp.name, len(h), len(c))
				continue
			}
			for k := range h {
				assertSameVerdict(t, h[k], c[k], true)
			}
		}
	}
}

// TestRepeatedKillResume proves monotonic progress: a run killed after
// every single checkpoint commit, resumed each time, still terminates
// with the uninterrupted result.
func TestRepeatedKillResume(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	base := Options{Properties: []Property{MutualExclusion}, Workers: 1}
	ref := Explore(build, base)

	dir := t.TempDir()
	opts := base
	opts.Checkpoint = CheckpointOptions{Dir: dir, EveryStates: 250}
	opts.Faults = crashInjector(fault.CkptCommit, 1)
	run := Explore(build, opts)
	if !run.Crashed {
		t.Fatalf("first kill never fired (states=%d)", run.States)
	}

	var res Result
	for cycle := 0; ; cycle++ {
		if cycle > 200 {
			t.Fatal("no progress after 200 kill/resume cycles")
		}
		ropts := base
		// Every resumed run survives its first commit and dies at the
		// second, so each cycle durably advances by one checkpoint
		// period. The last cycle's frontier drains before a second
		// commit can happen and the run completes.
		ropts.Faults = crashInjector(fault.CkptCommit, 1)
		var err error
		res, err = Resume(dir, build, ropts)
		if err != nil {
			t.Fatalf("cycle %d: Resume: %v", cycle, err)
		}
		if !res.Crashed && !res.Interrupted {
			break
		}
	}
	assertSameVerdict(t, res, ref, true)
}

// TestCheckpointTempCrashAtomicity kills the writer in the vulnerable
// window — temp file written, rename not yet executed — and checks the
// previously committed checkpoint survives and still resumes correctly.
func TestCheckpointTempCrashAtomicity(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	base := Options{Properties: []Property{MutualExclusion}, Workers: 1}
	ref := Explore(build, base)

	dir := t.TempDir()
	opts := base
	opts.Checkpoint = CheckpointOptions{Dir: dir, EveryStates: 40}
	// MinArrivals 1: the first temp write succeeds and commits; the
	// crash hits during the SECOND write, before its rename.
	opts.Faults = crashInjector(fault.CkptTemp, 1)
	run := Explore(build, opts)
	if !run.Crashed {
		t.Fatalf("temp-write crash never fired (states=%d)", run.States)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTempName)); err != nil {
		t.Errorf("crash window should leave the temp file behind: %v", err)
	}

	ck, err := loadCheckpoint(filepath.Join(dir, ckptFileName))
	if err != nil {
		t.Fatalf("committed checkpoint did not survive the torn write: %v", err)
	}
	if ck.hdr.States < 40 || ck.hdr.States >= run.States {
		t.Errorf("committed checkpoint has %d states, want the FIRST snapshot (>=40, < %d)", ck.hdr.States, run.States)
	}

	res, err := Resume(dir, build, base)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	assertSameVerdict(t, res, ref, true)
}

// TestInterruptThenResume stops a checkpointed run via the cooperative
// Interrupt flag and resumes it: the reassembled result must match an
// uninterrupted run, and the interrupted one must say so.
func TestInterruptThenResume(t *testing.T) {
	p0, p1 := catalogPair("SB")
	build := machineFor(p0, p1)
	base := Options{Workers: 1}
	ref := Explore(build, base)

	dir := t.TempDir()
	var stop atomic.Bool
	stop.Store(true) // workers see it at their first frame
	opts := base
	opts.Checkpoint = CheckpointOptions{Dir: dir}
	opts.Interrupt = &stop
	run := Explore(build, opts)
	if !run.Interrupted {
		t.Fatal("Interrupted not set")
	}
	if run.States >= ref.States {
		t.Fatalf("interrupted run explored everything (%d states)", run.States)
	}

	res, err := Resume(dir, build, base)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	assertSameVerdict(t, res, ref, true)
}

// TestResumeOfCompletedRun pins what a checkpointed run leaves behind. A
// snapshot records unfinished work: a run that drained commits its
// periodic snapshots and no final one, and Resume on whatever it left
// re-explores the tail to the reference verdict; an interrupted run
// still parks its remainder in a final snapshot.
func TestResumeOfCompletedRun(t *testing.T) {
	t.Run("drained", func(t *testing.T) {
		// Under the cadence: the run never touches a checkpoint file, and
		// there is nothing to resume (the caller's os.Stat case).
		p0, p1 := catalogPair("SB")
		dir := t.TempDir()
		sb := Explore(machineFor(p0, p1), Options{Workers: 1, Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 5000}})
		if got := sb.Obs.Counters["checkpoint_writes"]; got != 0 {
			t.Errorf("SB pair (%d states) committed %d snapshots under a 5000-state cadence, want 0", sb.States, got)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("drained run left %d file(s) in its checkpoint directory", len(ents))
		}
		if _, err := Resume(dir, machineFor(p0, p1), Options{Workers: 1}); err == nil {
			t.Error("Resume of a directory no snapshot was committed to succeeded")
		}

		// Over the cadence: periodic commits only, and the last one
		// resumes to the reference by re-exploring the tail.
		d0, d1 := programs.DekkerPair(programs.DekkerNoFence)
		build := machineFor(d0, d1)
		base := Options{Properties: []Property{MutualExclusion}, Workers: 1}
		ref := Explore(build, base)
		dir = t.TempDir()
		opts := base
		opts.Checkpoint = CheckpointOptions{Dir: dir, EveryStates: 500}
		run := Explore(build, opts)
		assertSameVerdict(t, run, ref, true)
		periodic := uint64(ref.States / 500)
		if got := run.Obs.Counters["checkpoint_writes"]; got != periodic || periodic == 0 {
			t.Errorf("drained run of %d states committed %d snapshots, want its %d periodic ones only", ref.States, got, periodic)
		}
		res, err := Resume(dir, build, base)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		assertSameVerdict(t, res, ref, true)
		if got := int(res.Obs.Gauges["resumed_states"]); got != int(periodic)*500 {
			t.Errorf("resumed_states=%d, want the last periodic commit's %d", got, periodic*500)
		}
	})

	t.Run("interrupted", func(t *testing.T) {
		p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
		build := machineFor(p0, p1)
		base := Options{Properties: []Property{MutualExclusion}, Workers: 1}
		ref := Explore(build, base)

		// Interrupt at the first periodic commit: the run stops at its
		// next frame and parks the remainder in a final snapshot.
		dir := t.TempDir()
		var stop atomic.Bool
		opts := base
		opts.Interrupt = &stop
		opts.Checkpoint = CheckpointOptions{Dir: dir, EveryStates: 500, OnCommit: func(int) { stop.Store(true) }}
		run := Explore(build, opts)
		if !run.Interrupted {
			t.Fatal("Interrupted not set")
		}
		if got := run.Obs.Counters["checkpoint_writes"]; got != 2 {
			t.Errorf("interrupted run committed %d snapshots, want 2 (one periodic, one final)", got)
		}
		res, err := Resume(dir, build, base)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		if got := int(res.Obs.Gauges["resumed_states"]); got != run.States {
			t.Errorf("resumed_states=%d, want everything the interrupted run explored (%d)", got, run.States)
		}
		assertSameVerdict(t, res, ref, true)
	})
}

// TestCheckpointOnCommit pins the commit callback: called once per
// committed snapshot with a 1-based ordinal.
func TestCheckpointOnCommit(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	dir := t.TempDir()
	var commits []int
	res := Explore(build, Options{
		Workers: 1,
		Checkpoint: CheckpointOptions{
			Dir:         dir,
			EveryStates: 500,
			OnCommit:    func(n int) { commits = append(commits, n) },
		},
	})
	if len(commits) < 2 {
		t.Fatalf("want at least 2 periodic commits, got %v", commits)
	}
	for i, n := range commits {
		if n != i+1 {
			t.Fatalf("commit ordinals not sequential: %v", commits)
		}
	}
	if got := res.Obs.Counters["checkpoint_writes"]; got != uint64(len(commits)) {
		t.Errorf("checkpoint_writes=%d, OnCommit saw %d", got, len(commits))
	}
}

// TestResumeParentWrittenCheckpoint pins the on-disk format. testdata
// holds four mid-run dekker-nofence checkpoints, all from the same
// recipe: MutualExclusion, one worker, EveryStates 150, killed at the
// second commit, 300 states in.
//
// The two collapsed ones were written by commit 61917c3, the last whose
// exact visited set was a map and whose Options still carried a
// deprecated alias of StopOnViolation. The records, the component tables
// and the options hash (the stop-on-violation bit included, in its old
// position) must all still mean what they meant — and since that build
// every checkpoint on disk is collapsed, so they must resume collapsed
// although these Options do not ask for Collapse.
//
// The two -hashed ones were written by the first build that puts hash
// pairs on disk (PR 21). Their records are tso.Machine.KeyPair values:
// a key-path change that moves the pair orphans every such file, and
// these rows are what fails — bump ckptVersion then, do not re-record.
func TestResumeParentWrittenCheckpoint(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	for _, tc := range []struct {
		file      string
		reduction bool
		keys      string
	}{
		{"dekker-nofence-plain.lbmf", false, KeysCollapsed},
		{"dekker-nofence-reduction.lbmf", true, KeysCollapsed},
		{"dekker-nofence-plain-hashed.lbmf", false, KeysHashed},
		{"dekker-nofence-reduction-hashed.lbmf", true, KeysHashed},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, ckptFileName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := Options{Properties: []Property{MutualExclusion}, Workers: 4, Reduction: tc.reduction}
			ref := Explore(build, opts)

			stop := opts
			stop.StopOnViolation = true
			if _, err := Resume(dir, build, stop); !errors.Is(err, ErrCheckpointMismatch) {
				t.Errorf("Resume with StopOnViolation flipped: %v, want ErrCheckpointMismatch", err)
			}
			res, err := Resume(dir, build, opts)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if got := res.Obs.Gauges["resumed_states"]; got != 300 {
				t.Errorf("resumed_states=%v, the checkpoint holds 300", got)
			}
			if res.Keys() != tc.keys {
				t.Errorf("resumed on %s keys, the file holds %s", res.Keys(), tc.keys)
			}
			assertSameVerdict(t, res, ref, !tc.reduction)
			if m := Replay(build, res.ViolationTrace); !m.CSViolation {
				t.Error("resumed violation trace does not replay to a violation")
			}
		})
	}
}

// TestResumeRejections is the rejection table: every way a checkpoint
// can be unusable must map to the right sentinel, with no panics. Its
// accepted rows are the key-mode ones: a file resumes on its own keys,
// whatever Collapse or MemBudget say.
func TestResumeRejections(t *testing.T) {
	p0, p1 := catalogPair("SB")
	build := machineFor(p0, p1)
	opts := Options{Workers: 1}
	ref := Explore(build, opts)
	// parked leaves a valid checkpoint — the final snapshot of a run
	// interrupted at its first frame — in a fresh dir.
	parked := func(o Options) string {
		var stop atomic.Bool
		stop.Store(true)
		o.Checkpoint = CheckpointOptions{Dir: t.TempDir()}
		o.Interrupt = &stop
		if run := Explore(build, o); !run.Interrupted || run.Obs.Counters["checkpoint_writes"] != 1 {
			t.Fatalf("fixture: interrupted=%v, %d snapshots", run.Interrupted, run.Obs.Counters["checkpoint_writes"])
		}
		return o.Checkpoint.Dir
	}
	dir := parked(opts) // hashed keys
	collapsedDir := parked(Options{Workers: 1, Collapse: true})

	good, err := os.ReadFile(filepath.Join(dir, ckptFileName))
	if err != nil {
		t.Fatal(err)
	}
	// corruptDir writes a mutated copy of the good checkpoint into a
	// fresh dir and returns the dir.
	corruptDir := func(t *testing.T, mutate func([]byte) []byte) string {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, ckptFileName), mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return d
	}

	dp0, dp1 := programs.DekkerPair(programs.DekkerNoFence)
	cases := []struct {
		name  string
		dir   func(t *testing.T) string
		build func() *tso.Machine
		opts  Options
		want  error  // nil: accepted, and resumes to the reference
		keys  string // on acceptance, the key mode the file dictates
	}{
		{
			name:  "wrong program",
			dir:   func(*testing.T) string { return dir },
			build: machineFor(dp0, dp1),
			opts:  opts,
			want:  ErrCheckpointMismatch,
		},
		{
			name: "wrong options/max states",
			dir:  func(*testing.T) string { return dir },
			opts: Options{Workers: 1, MaxStates: 123},
			want: ErrCheckpointMismatch,
		},
		{
			name: "wrong options/reduction",
			dir:  func(*testing.T) string { return dir },
			opts: Options{Workers: 1, Reduction: true},
			want: ErrCheckpointMismatch,
		},
		{
			name: "hashed file under Collapse",
			dir:  func(*testing.T) string { return dir },
			opts: Options{Workers: 1, Collapse: true},
			keys: KeysHashed,
		},
		{
			name: "hashed file under MemBudget",
			dir:  func(*testing.T) string { return dir },
			opts: Options{Workers: 1, MemBudget: 1 << 12},
			keys: KeysHashed,
		},
		{
			name: "hashed file as written",
			dir:  func(*testing.T) string { return dir },
			opts: opts,
			keys: KeysHashed,
		},
		{
			name: "collapsed file without Collapse",
			dir:  func(*testing.T) string { return collapsedDir },
			opts: opts,
			keys: KeysCollapsed,
		},
		{
			name: "truncated half",
			dir:  func(t *testing.T) string { return corruptDir(t, func(b []byte) []byte { return b[:len(b)/2] }) },
			opts: opts,
			want: ErrCheckpointTruncated,
		},
		{
			name: "truncated below fixed header",
			dir:  func(t *testing.T) string { return corruptDir(t, func(b []byte) []byte { return b[:10] }) },
			opts: opts,
			want: ErrCheckpointTruncated,
		},
		{
			name: "bad magic",
			dir: func(t *testing.T) string {
				return corruptDir(t, func(b []byte) []byte { b[0] ^= 0xFF; return b })
			},
			opts: opts,
			want: ErrCheckpointCorrupt,
		},
		{
			name: "flipped body byte",
			dir: func(t *testing.T) string {
				return corruptDir(t, func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
			},
			opts: opts,
			want: ErrCheckpointCorrupt,
		},
		{
			name: "trailing garbage",
			dir: func(t *testing.T) string {
				return corruptDir(t, func(b []byte) []byte { return append(b, 0xAB, 0xCD) })
			},
			opts: opts,
			want: ErrCheckpointCorrupt,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build
			if b == nil {
				b = build
			}
			res, err := Resume(tc.dir(t), b, tc.opts)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Resume error = %v, want errors.Is(%v)", err, tc.want)
			}
			if tc.want == nil {
				assertSameVerdict(t, res, ref, true)
				if res.Keys() != tc.keys {
					t.Errorf("resumed on %s keys, the file holds %s", res.Keys(), tc.keys)
				}
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		if _, err := Resume(t.TempDir(), build, opts); err == nil {
			t.Error("Resume of empty dir succeeded")
		}
	})
}

// TestSpillFailureDegradation injects a spill-write failure into a
// memory-budgeted run: the budget must disable itself (counted in Obs),
// and the exploration must stay exhaustive and exact.
func TestSpillFailureDegradation(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	ref := Explore(build, Options{Workers: 1})

	in := fault.New(7)
	in.Arm(fault.SpillWrite, fault.Plan{Prob: 1, Drop: true})
	res := Explore(build, Options{Workers: 1, MemBudget: 1 << 10, Faults: in})
	if res.Obs.Counters["visited_spill_failures"] == 0 {
		t.Fatalf("no spill failure recorded (arrivals=%d)", in.Arrivals(fault.SpillWrite))
	}
	if res.Obs.Gauges["visited_spill_disabled"] != 1 {
		t.Error("budget not marked disabled after spill failure")
	}
	assertSameVerdict(t, res, ref, true)
}

// TestCheckpointDirUncreatable: checkpointing into an impossible dir
// degrades to an ordinary run instead of failing it.
func TestCheckpointDirUncreatable(t *testing.T) {
	p0, p1 := catalogPair("SB")
	build := machineFor(p0, p1)
	blocker := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := Explore(build, Options{Workers: 1})
	res := Explore(build, Options{Workers: 1,
		Checkpoint: CheckpointOptions{Dir: filepath.Join(blocker, "sub")}})
	if res.Obs.Gauges["checkpoint_disabled"] != 1 {
		t.Error("checkpoint_disabled gauge not set")
	}
	if res.Obs.Counters["checkpoint_errors"] == 0 {
		t.Error("checkpoint_errors not counted")
	}
	assertSameVerdict(t, res, ref, true)
}

// TestVerifyVisitedRefusesCheckpoint: the audit checks hash pairs
// against full fingerprints it keeps in memory, so every option that
// contradicts that is refused up front by resolve, like an invalid
// Symmetry — a snapshot (Checkpoint, Resume) does not carry the audit
// map, Collapse has no hash pair to audit, and a MemBudget cannot spill
// the map. A refused run touches no checkpoint directory.
func TestVerifyVisitedRefusesCheckpoint(t *testing.T) {
	p0, p1 := catalogPair("SB")
	build := machineFor(p0, p1)
	parked, dir := t.TempDir(), t.TempDir()
	var stop atomic.Bool
	stop.Store(true)
	Explore(build, Options{Workers: 1, Interrupt: &stop, Checkpoint: CheckpointOptions{Dir: parked}})

	for _, tc := range []struct {
		name   string
		mod    func(*Options)
		resume bool
	}{
		{"Checkpoint", func(o *Options) { o.Checkpoint.Dir = dir }, false},
		{"Resume", func(*Options) {}, true},
		{"Collapse", func(o *Options) { o.Collapse = true }, false},
		{"MemBudget", func(o *Options) { o.MemBudget = 1 << 12 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: 1, VerifyVisited: true}
			tc.mod(&opts)
			defer func() {
				if r := recover(); r == nil {
					t.Error("ran, want a refusal")
				} else if msg, _ := r.(string); !strings.Contains(msg, "VerifyVisited") {
					t.Errorf("panic %v does not name the option", r)
				}
			}()
			if tc.resume {
				Resume(parked, build, opts)
			} else {
				Explore(build, opts)
			}
		})
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("refused run touched its checkpoint directory (%d entries)", len(ents))
	}
}
