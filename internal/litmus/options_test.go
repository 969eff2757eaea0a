package litmus

import (
	"testing"

	"repro/internal/programs"
)

// TestStopOnViolation pins the canonical early-cancellation flag on both
// engines: a violation is recorded with a replayable trace, and the
// search ends well short of the full state space.
func TestStopOnViolation(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	full := Explore(build, Options{Properties: []Property{MutualExclusion}, Workers: 4})
	if full.Violations == 0 {
		t.Fatal("unfenced Dekker found no violation")
	}

	for name, run := range map[string]func(Options) Result{
		"serial":   func(o Options) Result { return ExploreSerial(build, o) },
		"parallel": func(o Options) Result { o.Workers = 4; return Explore(build, o) },
	} {
		t.Run(name, func(t *testing.T) {
			res := run(Options{
				Properties:      []Property{MutualExclusion},
				StopOnViolation: true,
			})
			if res.Violations == 0 {
				t.Fatal("no violation recorded")
			}
			if res.States >= full.States {
				t.Errorf("explored %d states, full space is %d — did not stop early",
					res.States, full.States)
			}
			if !Replay(build, res.ViolationTrace).CSViolation {
				t.Error("violation trace does not replay to a violation")
			}
		})
	}
}

// TestMaxStatesGracefulPartial pins the truncation contract on both
// engines: hitting the budget flags Truncated but still returns a usable
// partial Result — states within the cap, and any outcomes or violations
// found before the cap preserved.
func TestMaxStatesGracefulPartial(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	full := Explore(build, Options{Properties: []Property{MutualExclusion}})
	cap := full.States / 2
	if cap < 10 {
		t.Fatalf("state space too small to truncate meaningfully: %d", full.States)
	}

	for name, run := range map[string]func(Options) Result{
		"serial":   func(o Options) Result { return ExploreSerial(build, o) },
		"parallel": func(o Options) Result { o.Workers = 4; return Explore(build, o) },
	} {
		t.Run(name, func(t *testing.T) {
			res := run(Options{Properties: []Property{MutualExclusion}, MaxStates: cap})
			if !res.Truncated {
				t.Fatalf("MaxStates=%d did not set Truncated", cap)
			}
			if res.States > cap {
				t.Errorf("explored %d states past the %d cap", res.States, cap)
			}
			if res.Violations > 0 && !Replay(build, res.ViolationTrace).CSViolation {
				t.Error("partial result's violation trace does not replay")
			}
		})
	}

	// A budget big enough for the whole space must not truncate, and the
	// result must match the unbounded run exactly.
	exact := ExploreSerial(build, Options{Properties: []Property{MutualExclusion}, MaxStates: full.States})
	if exact.Truncated {
		t.Errorf("budget == state count (%d) truncated", full.States)
	}
	if exact.States != full.States {
		t.Errorf("exact budget explored %d states, want %d", exact.States, full.States)
	}
}
