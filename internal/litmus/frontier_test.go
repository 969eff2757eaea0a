package litmus

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/programs"
	"repro/internal/tso"
)

// frontierSpaces are the two-process bakery and Peterson spaces the
// frontier tests run on: fenced (a few thousand states, no violation)
// and unfenced (violating).
func frontierSpaces(v programs.DekkerVariant) map[string]func() *tso.Machine {
	b0, b1 := programs.BakeryPair(v)
	p0, p1 := programs.PetersonPair(v)
	return map[string]func() *tso.Machine{
		"bakery2":   classicMachine(b0, b1),
		"peterson2": classicMachine(p0, p1),
	}
}

// TestFrontierMatchesSerial: whatever the worker count, and so whether
// frames never leave one private stack (1), are handed over constantly
// (8 workers on a space this small mostly starve), or anything between,
// every state is expanded exactly once and the pool terminates.
func TestFrontierMatchesSerial(t *testing.T) {
	for name, build := range frontierSpaces(programs.DekkerMfence) {
		opts := Options{Properties: []Property{MutualExclusion}}
		serial := ExploreSerial(build, opts)
		for _, workers := range []int{1, 2, 4, 8} {
			opts.Workers = workers
			par := Explore(build, opts)
			if par.States != serial.States || par.Transitions != serial.Transitions ||
				!reflect.DeepEqual(par.Outcomes, serial.Outcomes) {
				t.Errorf("%s workers=%d: %d states / %d transitions / %d outcomes, serial %d / %d / %d", name, workers,
					par.States, par.Transitions, len(par.Outcomes), serial.States, serial.Transitions, len(serial.Outcomes))
			}
		}
	}
}

// TestFrontierCancelWithPrivateFrames: StopOnViolation and MaxStates end
// the run while every worker still holds unpublished frames; nobody may
// wait for a frame count that will never reach zero.
func TestFrontierCancelWithPrivateFrames(t *testing.T) { frontierCancelWithPrivateFrames(t) }

func frontierCancelWithPrivateFrames(t *testing.T) {
	for name, build := range frontierSpaces(programs.DekkerNoFence) {
		for _, workers := range []int{1, 4} {
			res := Explore(build, Options{Properties: []Property{MutualExclusion}, Workers: workers, StopOnViolation: true})
			if res.FirstViolation == nil || !Replay(build, res.ViolationTrace).CSViolation {
				t.Errorf("%s workers=%d: stopped without a replayable violation", name, workers)
			}
			res = Explore(build, Options{Workers: workers, MaxStates: 500})
			if !res.Truncated || res.States != 500 {
				t.Errorf("%s workers=%d: MaxStates=500 gave %d states, truncated=%v", name, workers, res.States, res.Truncated)
			}
		}
	}
}

// TestFrontierLazyTraceReplays: trace links are built only for frames
// that win their claim, so a violation deep in the space is reported
// over a chain assembled lazily across many frames, by either
// expansion path.
func TestFrontierLazyTraceReplays(t *testing.T) {
	for name, build := range frontierSpaces(programs.DekkerNoFence) {
		for _, reduction := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				res := Explore(build, Options{Properties: []Property{MutualExclusion}, Workers: workers, Reduction: reduction})
				if res.Violations == 0 {
					t.Fatalf("%s workers=%d reduction=%v: no violation found", name, workers, reduction)
				}
				if !Replay(build, res.ViolationTrace).CSViolation {
					t.Errorf("%s workers=%d reduction=%v: trace of %d actions does not replay to a violation",
						name, workers, reduction, len(res.ViolationTrace))
				}
			}
		}
	}
}

// TestFrontierCheckpointAcrossWorkerCounts kills a run at a mid-run
// checkpoint commit and resumes it at another worker count. With one
// worker nothing is ever published, so the snapshot's frontier is read
// from a private stack alone; with four it is spread over private and
// shared stacks. Either way the resumed run must finish with the
// uninterrupted result.
func TestFrontierCheckpointAcrossWorkerCounts(t *testing.T) {
	for name, build := range frontierSpaces(programs.DekkerNoFence) {
		base := Options{Properties: []Property{MutualExclusion}}
		ref := Explore(build, base)
		for _, leg := range [][2]int{{1, 4}, {4, 1}} {
			dir := t.TempDir()
			crashed := base
			crashed.Workers = leg[0]
			crashed.Checkpoint = CheckpointOptions{Dir: dir, EveryStates: ref.States / 5}
			crashed.Faults = crashInjector(fault.CkptCommit, 1)
			if run := Explore(build, crashed); !run.Crashed {
				t.Fatalf("%s %d->%d: crash point never fired (states=%d)", name, leg[0], leg[1], run.States)
			}
			ck, err := loadCheckpoint(filepath.Join(dir, ckptFileName))
			if err != nil {
				t.Fatal(err)
			}
			if ck.hdr.FrontierCount == 0 || ck.hdr.States >= ref.States {
				t.Fatalf("%s %d->%d: snapshot is not mid-run: %d frames, %d of %d states",
					name, leg[0], leg[1], ck.hdr.FrontierCount, ck.hdr.States, ref.States)
			}
			resumed := base
			resumed.Workers = leg[1]
			res, err := Resume(dir, build, resumed)
			if err != nil {
				t.Fatalf("%s %d->%d: Resume: %v", name, leg[0], leg[1], err)
			}
			assertSameVerdict(t, res, ref, true)
			if !Replay(build, res.ViolationTrace).CSViolation {
				t.Errorf("%s %d->%d: resumed violation trace does not replay", name, leg[0], leg[1])
			}
		}
	}
}

// TestFrontierHeldFrameInterruptResume interrupts runs whose workers
// key frames one ahead from their first claim (run) at several points,
// hashed and collapsed, and resumes each from its final snapshot: the
// frame a worker held when it stopped, and one a second worker popped
// as the flag went up, must be in that snapshot, or the resumed run
// misses its subtree. Peterson's space alone keeps the Frontier race
// lane's twenty repetitions short.
func TestFrontierHeldFrameInterruptResume(t *testing.T) {
	pipelineFromFirstClaim(t)
	var stop atomic.Bool
	var claims, fireAt atomic.Int64
	stopper := func(*tso.Machine) error {
		if claims.Add(1) == fireAt.Load() {
			stop.Store(true)
		}
		return nil
	}
	build := frontierSpaces(programs.DekkerNoFence)["peterson2"]
	for _, collapse := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			tag := fmt.Sprintf("collapse=%v workers=%d", collapse, workers)
			base := Options{Properties: []Property{stopper, MutualExclusion}, Workers: workers, Collapse: collapse}
			fireAt.Store(-1)
			ref := Explore(build, base)
			for _, at := range []int64{2, 3, 50, int64(ref.States / 2)} {
				claims.Store(0)
				fireAt.Store(at)
				stop.Store(false)
				dir := t.TempDir()
				opts := base
				opts.Checkpoint = CheckpointOptions{Dir: dir}
				opts.Interrupt = &stop
				if run := Explore(build, opts); !run.Interrupted || run.States >= ref.States {
					t.Fatalf("%s at %d: interrupted=%v after %d of %d states", tag, at, run.Interrupted, run.States, ref.States)
				}
				fireAt.Store(-1)
				res, err := Resume(dir, build, base)
				if err != nil {
					t.Fatalf("%s at %d: Resume: %v", tag, at, err)
				}
				assertSameVerdict(t, res, ref, true)
			}
		}
	}
}

// TestFrontierPushPopAllocs: the private stack reuses its backing array.
func TestFrontierPushPopAllocs(t *testing.T) {
	w := &worker{eng: &engine{}}
	w.eng.workers = []*worker{w}
	f := pframe{m: new(tso.Machine)}
	w.push(f)
	w.push(f)
	w.pop()
	w.pop()
	if n := testing.AllocsPerRun(1000, func() {
		w.push(f)
		w.push(f)
		if _, ok := w.pop(); !ok {
			t.Fatal("pop missed a pushed frame")
		}
		w.pop()
	}); n != 0 {
		t.Errorf("push/pop allocates %.1f objects", n)
	}
	if _, ok := w.pop(); ok {
		t.Error("pop invented a frame")
	}
}
