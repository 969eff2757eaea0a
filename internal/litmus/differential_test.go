package litmus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// TestSerialParallelEquivalence runs the full classic catalog plus the
// Dekker variants through both the serial reference engine and the
// parallel work-stealing engine and asserts identical Outcomes maps,
// state counts, transition counts, and violation verdicts. Run under
// -race it additionally validates the striped visited set and result
// merging.
func TestSerialParallelEquivalence(t *testing.T) {
	type space struct {
		name  string
		build func() *tso.Machine
		props []Property
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
	for _, v := range []programs.DekkerVariant{
		programs.DekkerNoFence, programs.DekkerMfence, programs.DekkerLmfence,
	} {
		p0, p1 := programs.DekkerPair(v)
		spaces = append(spaces, space{
			name:  "dekker/" + v.String(),
			build: machineFor(p0, p1),
			props: []Property{MutualExclusion},
		})
	}

	for _, sp := range spaces {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			serial := ExploreSerial(sp.build, Options{Properties: sp.props})
			for _, workers := range []int{1, 4} {
				par := Explore(sp.build, Options{Properties: sp.props, Workers: workers})
				if par.States != serial.States {
					t.Errorf("workers=%d: States=%d, serial=%d", workers, par.States, serial.States)
				}
				if par.Transitions != serial.Transitions {
					t.Errorf("workers=%d: Transitions=%d, serial=%d", workers, par.Transitions, serial.Transitions)
				}
				if par.Violations != serial.Violations {
					t.Errorf("workers=%d: Violations=%d, serial=%d", workers, par.Violations, serial.Violations)
				}
				if par.Deadlocks != serial.Deadlocks {
					t.Errorf("workers=%d: Deadlocks=%d, serial=%d", workers, par.Deadlocks, serial.Deadlocks)
				}
				if par.Truncated != serial.Truncated {
					t.Errorf("workers=%d: Truncated=%v, serial=%v", workers, par.Truncated, serial.Truncated)
				}
				if !reflect.DeepEqual(par.Outcomes, serial.Outcomes) {
					t.Errorf("workers=%d: Outcomes diverge:\nparallel: %v\nserial:   %v",
						workers, par.Outcomes, serial.Outcomes)
				}
				// A recorded violation trace must replay to a violation
				// regardless of which violating state was found first.
				if par.Violations > 0 {
					m := Replay(sp.build, par.ViolationTrace)
					if !m.CSViolation {
						t.Errorf("workers=%d: violation trace does not replay to a violation", workers)
					}
				}
			}
		})
	}
}

// TestParallelStopOnViolation checks cooperative cancellation: the
// parallel engine must record a valid counterexample and stop early.
func TestParallelStopOnViolation(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	res := Explore(build, Options{
		Properties:      []Property{MutualExclusion},
		StopOnViolation: true,
		Workers:         4,
	})
	if res.Violations == 0 {
		t.Fatal("no violation found")
	}
	full := Explore(build, Options{Properties: []Property{MutualExclusion}, Workers: 4})
	if res.States >= full.States {
		t.Errorf("StopOnViolation explored %d states, full space is %d", res.States, full.States)
	}
	if !Replay(build, res.ViolationTrace).CSViolation {
		t.Error("violation trace does not replay to a violation")
	}
}

// TestParallelMaxStates checks the cooperative truncation counter: the
// budget is exact — a truncated run reports States equal to MaxStates,
// never an overshoot from racing workers.
func TestParallelMaxStates(t *testing.T) { parallelMaxStates(t) }

// TestFrontierHeldFrameMaxStates holds the exact cap with every worker
// keying frames one ahead from its first claim (run).
func TestFrontierHeldFrameMaxStates(t *testing.T) {
	pipelineFromFirstClaim(t)
	parallelMaxStates(t)
	frontierCancelWithPrivateFrames(t)
}

func parallelMaxStates(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerMfence)
	for _, max := range []int{1, 10, 100} {
		for _, workers := range []int{1, 4, 8} {
			res := Explore(machineFor(p0, p1), Options{MaxStates: max, Workers: workers})
			if !res.Truncated {
				t.Errorf("MaxStates=%d workers=%d did not truncate", max, workers)
			}
			if res.States != max {
				t.Errorf("MaxStates=%d workers=%d: States=%d, want exactly the cap",
					max, workers, res.States)
			}
		}
	}
}

// TestHasOutcomeWholeToken is the regression test for the substring bug:
// the fragment "r6=1" used to match "r6=12" via strings.Contains.
func TestHasOutcomeWholeToken(t *testing.T) {
	r := Result{Outcomes: map[Outcome]int{
		"P0[r0=1,r1=12,r2=0,r6=12] P1[r0=2,r1=1,r2=21,r6=0]": 1,
	}}
	if r.HasOutcome(0, "r6=1") {
		t.Error(`"r6=1" matched the two-digit value r6=12`)
	}
	if !r.HasOutcome(0, "r6=12") {
		t.Error(`exact token "r6=12" not matched`)
	}
	if r.HasOutcome(0, "r1=1") {
		t.Error(`"r1=1" matched r1=12`)
	}
	if !r.HasOutcome(1, "r1=1") {
		t.Error(`"r1=1" not matched on P1`)
	}
	if r.HasOutcome(1, "r2=2") {
		t.Error(`"r2=2" matched r2=21`)
	}
	if r.HasOutcome(1, "r2=21", "r6=1") {
		t.Error("partial fragment list matched")
	}
	if !r.HasOutcome(1, "r2=21", "r6=0") {
		t.Error("full fragment list not matched")
	}
}

// TestAppendOutcomeFormat pins the outcome encoding to the historical
// fmt-based format, byte for byte.
func TestAppendOutcomeFormat(t *testing.T) {
	p := tso.NewBuilder("fmt").
		LoadI(0, 7).LoadI(1, -3).LoadI(2, 1234).LoadI(6, 1).
		Halt().Build()
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	m := tso.NewMachine(cfg, p, p)
	for pid := 0; pid < 2; pid++ {
		for !m.Procs[pid].Halted {
			m.ExecStep(arch.ProcID(pid))
		}
	}

	var sb strings.Builder
	for i, pr := range m.Procs {
		if pr.Prog == nil {
			continue
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "P%d[", i)
		for j, r := range OutcomeRegs {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "r%d=%d", r, pr.Regs[r])
		}
		sb.WriteByte(']')
	}
	want := sb.String()
	got := string(appendOutcome(nil, m))
	if got != want {
		t.Errorf("appendOutcome = %q, fmt reference = %q", got, want)
	}
	if !strings.Contains(got, "r2=1234") || !strings.Contains(got, "r1=-3") {
		t.Errorf("encoded values missing from %q", got)
	}
}
