package litmus

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

func machineFor(progs ...*tso.Program) func() *tso.Machine {
	cfg := arch.DefaultConfig()
	cfg.Procs = len(progs)
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	return func() *tso.Machine { return tso.NewMachine(cfg, progs...) }
}

// catalogPair returns the programs of the named two-thread catalog test.
func catalogPair(name string) (*tso.Program, *tso.Program) {
	progs := CatalogEntry(name).Build()
	return progs[0], progs[1]
}

func explore(t *testing.T, build func() *tso.Machine, opts Options) Result {
	t.Helper()
	res := Explore(build, opts)
	if res.Truncated {
		t.Fatalf("exploration truncated at %d states", res.States)
	}
	if res.Deadlocks != 0 {
		t.Fatalf("%d deadlocked states found", res.Deadlocks)
	}
	return res
}

// --- The classic store-buffering litmus test -------------------------

func TestSBReordersWithoutFence(t *testing.T) {
	p0, p1 := catalogPair("SB")
	res := explore(t, machineFor(p0, p1), Options{})
	// TSO permits both loads to read 0: the reordering of Principle 4.
	if !res.HasOutcome(0, "r0=0") {
		t.Error("P0 never observed r0=0")
	}
	both := res.CountOutcomes(func(o Outcome) bool {
		return strings.Contains(procSection(string(o), 0), "r0=0") &&
			strings.Contains(procSection(string(o), 1), "r0=0")
	})
	if both == 0 {
		t.Error("forbidden-under-SC outcome r0==0 on both threads not reachable under TSO")
	}
}

func TestSBMfenceForbidsReordering(t *testing.T) {
	p0, p1 := catalogPair("SB+mfence")
	res := explore(t, machineFor(p0, p1), Options{})
	both := res.CountOutcomes(func(o Outcome) bool {
		return strings.Contains(procSection(string(o), 0), "r0=0") &&
			strings.Contains(procSection(string(o), 1), "r0=0")
	})
	if both != 0 {
		t.Errorf("mfence failed to forbid the SB outcome (%d outcomes)", both)
	}
}

// Theorem 4's observable consequence: pairing l-mfence (primary) with
// mfence (secondary) forbids the SB outcome exactly like two mfences do.
func TestSBLmfenceForbidsReordering(t *testing.T) {
	p0, p1 := catalogPair("SB+lmfence")
	res := explore(t, machineFor(p0, p1), Options{})
	both := res.CountOutcomes(func(o Outcome) bool {
		return strings.Contains(procSection(string(o), 0), "r0=0") &&
			strings.Contains(procSection(string(o), 1), "r0=0")
	})
	if both != 0 {
		for _, o := range res.SortedOutcomes() {
			t.Logf("outcome: %s", o)
		}
		t.Errorf("l-mfence failed to forbid the SB outcome (%d outcomes)", both)
	}
	// Sanity: exploration saw more than one outcome overall.
	if len(res.Outcomes) < 2 {
		t.Errorf("suspiciously few outcomes: %d", len(res.Outcomes))
	}
}

// --- Message passing: write-write / read-read ordering ----------------

func TestMPOrderingHolds(t *testing.T) {
	p0, p1 := catalogPair("MP")
	res := explore(t, machineFor(p0, p1), Options{})
	// r1 is the flag, r2 the data: flag==1 && data==0 must be forbidden
	// (Principles 1 and 3).
	bad := res.CountOutcomes(func(o Outcome) bool {
		s := procSection(string(o), 1)
		return strings.Contains(s, "r1=1") && strings.Contains(s, "r2=0")
	})
	if bad != 0 {
		t.Errorf("MP violation reachable under TSO model (%d outcomes)", bad)
	}
	// The permitted outcomes must include seeing both and seeing neither.
	if !res.HasOutcome(1, "r1=1", "r2=1") {
		t.Error("fully-propagated outcome missing")
	}
	if !res.HasOutcome(1, "r1=0") {
		t.Error("early-reader outcome missing")
	}
}

func TestWriteOrderPropagation(t *testing.T) {
	p0, p1 := programs.LoadLoadPair()
	res := explore(t, machineFor(p0, p1), Options{})
	// If the reader saw y==1, the earlier x=2 must be visible too.
	bad := res.CountOutcomes(func(o Outcome) bool {
		s := procSection(string(o), 1)
		return strings.Contains(s, "r1=1") && !strings.Contains(s, "r2=2")
	})
	if bad != 0 {
		t.Errorf("write order violated: %d bad outcomes", bad)
	}
}

// --- The Dekker protocol (Figures 1 and 3(a)) ------------------------

func TestDekkerNoFenceViolatesMutualExclusion(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	res := Explore(build, Options{
		Properties:      []Property{MutualExclusion},
		StopOnViolation: true,
	})
	if res.Violations == 0 {
		t.Fatal("model checker failed to find the well-known unfenced Dekker bug")
	}
	if len(res.ViolationTrace) == 0 {
		t.Fatal("no violation trace recorded")
	}
	// The counterexample must replay to a violating state.
	m := Replay(build, res.ViolationTrace)
	if !m.CSViolation {
		t.Error("violation trace does not replay to a violation")
	}
	// And the rendered trace should mention both processors.
	txt := FormatTrace(build, res.ViolationTrace)
	if !strings.Contains(txt, "P0") || !strings.Contains(txt, "P1") {
		t.Errorf("trace rendering incomplete:\n%s", txt)
	}
}

func TestDekkerMfenceMutualExclusion(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerMfence)
	res := explore(t, machineFor(p0, p1), Options{Properties: []Property{MutualExclusion}})
	if res.Violations != 0 {
		t.Fatalf("mfence Dekker violated mutual exclusion:\n%s",
			FormatTrace(machineFor(p0, p1), res.ViolationTrace))
	}
	// Progress sanity: some interleaving lets each thread enter its CS.
	if !res.HasOutcome(0, "r6=1") {
		t.Error("primary never entered the critical section")
	}
	if !res.HasOutcome(1, "r6=1") {
		t.Error("secondary never entered the critical section")
	}
}

// Theorem 7: the asymmetric Dekker protocol using l-mfence provides
// mutual exclusion, machine-checked over every TSO interleaving.
func TestDekkerLmfenceMutualExclusion(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerLmfence)
	build := machineFor(p0, p1)
	res := explore(t, build, Options{Properties: []Property{MutualExclusion}})
	if res.Violations != 0 {
		t.Fatalf("l-mfence Dekker violated mutual exclusion:\n%s",
			FormatTrace(build, res.ViolationTrace))
	}
	if !res.HasOutcome(0, "r6=1") {
		t.Error("primary never entered the critical section")
	}
	if !res.HasOutcome(1, "r6=1") {
		t.Error("secondary never entered the critical section")
	}
}

// The paper notes the secondary may mirror the l-mfence and mutual
// exclusion still holds.
func TestDekkerLmfenceMirroredMutualExclusion(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerLmfenceMirrored)
	build := machineFor(p0, p1)
	res := explore(t, build, Options{Properties: []Property{MutualExclusion}})
	if res.Violations != 0 {
		t.Fatalf("mirrored l-mfence Dekker violated mutual exclusion:\n%s",
			FormatTrace(build, res.ViolationTrace))
	}
}

// --- Checker plumbing -------------------------------------------------

func TestOutcomeHelpers(t *testing.T) {
	r := Result{Outcomes: map[Outcome]int{
		"P0[r0=1,r1=0,r2=0,r6=1] P1[r0=0,r1=0,r2=0,r6=0]": 2,
	}}
	if !r.HasOutcome(0, "r0=1", "r6=1") {
		t.Error("HasOutcome missed matching fragments")
	}
	if r.HasOutcome(1, "r6=1") {
		t.Error("HasOutcome matched wrong processor")
	}
	if n := r.CountOutcomes(func(o Outcome) bool { return true }); n != 1 {
		t.Errorf("CountOutcomes = %d", n)
	}
}

func TestExploreRespectsMaxStates(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerMfence)
	res := Explore(machineFor(p0, p1), Options{MaxStates: 10})
	if !res.Truncated {
		t.Error("MaxStates=10 did not truncate")
	}
	if res.States > 10 {
		t.Errorf("explored %d states past the cap", res.States)
	}
}

func TestSingleProcDeterminism(t *testing.T) {
	p := tso.NewBuilder("seq").StoreI(1, 3).Load(0, 1).Halt().Build()
	res := explore(t, machineFor(p), Options{})
	if len(res.Outcomes) != 1 {
		t.Errorf("single-processor program has %d outcomes, want 1", len(res.Outcomes))
	}
	if !res.HasOutcome(0, "r0=3") {
		t.Error("forwarding outcome missing")
	}
}
