package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRunDekkerShape(t *testing.T) {
	opt := QuickDefaults()
	res, err := RunDekker(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	none, mfence, lm := res.Rows[0], res.Rows[1], res.Rows[2]
	// The paper's headline shape: mfence several times slower than no
	// fence; l-mfence close to no fence.
	if mfence.SlowdownVsNone < 2 {
		t.Errorf("sim mfence slowdown = %.2f, want >= 2", mfence.SlowdownVsNone)
	}
	if lm.SlowdownVsNone > mfence.SlowdownVsNone/1.5 {
		t.Errorf("sim l-mfence slowdown %.2f not well below mfence %.2f",
			lm.SlowdownVsNone, mfence.SlowdownVsNone)
	}
	if none.SlowdownVsNone != 1 {
		t.Errorf("baseline slowdown = %.2f", none.SlowdownVsNone)
	}
	tab := res.Table().String()
	if !strings.Contains(tab, "l-mfence") || !strings.Contains(tab, "mfence") {
		t.Errorf("table missing rows:\n%s", tab)
	}
}

func TestRunFig5SerialShape(t *testing.T) {
	opt := QuickDefaults()
	res, err := RunFig5(opt, false, core.ModeAsymmetricSW)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 benchmarks", len(res.Rows))
	}
	// One worker makes everything but the wall clock deterministic, so the
	// panel's shape is asserted on modelled cycles, not on seconds (the
	// wall-clock ratios belong to the bench pipeline, where benchdiff
	// applies a noise threshold over reps): the symmetric runtime pays
	// FencePenaltySpins at every fence it executes; the asymmetric one
	// avoids them all and, with no thief to signal it, pays for no round
	// trip.
	fences := map[string]uint64{}
	for _, row := range res.Rows {
		if row.Relative <= 0 {
			t.Errorf("%s: nonpositive relative %f", row.Benchmark, row.Relative)
		}
		saved := row.FencesAvoided * uint64(opt.Cost.FencePenaltySpins)
		paid := row.Signals * uint64(opt.Cost.SignalRoundTrip+opt.Cost.SignalHandler)
		if row.Signals != 0 || row.SuccessfulSteals != 0 || saved <= paid {
			t.Errorf("%s: serial asymmetric run saved %d modelled cycles but paid %d (%d signals, %d steals)",
				row.Benchmark, saved, paid, row.Signals, row.SuccessfulSteals)
		}
		fences[row.Benchmark] = row.FencesAvoided
	}
	// fib, which the paper uses to measure raw spawn overhead, is the most
	// spawn-dominated: it avoids more fences than any other benchmark,
	// its coarsened variant fibx included.
	for name, n := range fences {
		if name != "fib" && n >= fences["fib"] {
			t.Errorf("%s avoids %d fences, fib only %d", name, n, fences["fib"])
		}
	}
	tab := res.Table().String()
	if !strings.Contains(tab, "Fig. 5(a)") {
		t.Errorf("table title wrong:\n%s", tab)
	}
}

func TestRunFig5ParallelShape(t *testing.T) {
	opt := QuickDefaults()
	res, err := RunFig5(opt, true, core.ModeAsymmetricHW)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Parallel || res.Procs != opt.Procs {
		t.Errorf("panel metadata wrong: %+v", res)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	tab := res.Table().String()
	if !strings.Contains(tab, "Fig. 5(b)") || !strings.Contains(tab, "steal success") {
		t.Errorf("parallel table missing columns:\n%s", tab)
	}
}

func TestRunFig5RejectsSymmetricMode(t *testing.T) {
	if _, err := RunFig5(QuickDefaults(), false, core.ModeSymmetric); err == nil {
		t.Error("RunFig5 accepted a symmetric mode")
	}
}

func TestRunFig6Shape(t *testing.T) {
	opt := QuickDefaults()
	res, err := RunFig6(opt, true, core.ModeAsymmetricHW)
	if err != nil {
		t.Fatal(err)
	}
	want := len(opt.ThreadCounts) * len(opt.ReadWriteRatios)
	if len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.AsymReadsPerSec <= 0 || c.SRWReadsPerSec <= 0 {
			t.Errorf("cell %d:%d has zero throughput", c.Ratio, c.Threads)
		}
		if c.Writes == 0 {
			t.Errorf("cell %d:%d performed no writes", c.Ratio, c.Threads)
		}
	}
	tab := res.Table().String()
	if !strings.Contains(tab, "Fig. 6(b)") || !strings.Contains(tab, "ARW+") {
		t.Errorf("table wrong:\n%s", tab)
	}
}

func TestRunFig6RejectsSymmetricMode(t *testing.T) {
	if _, err := RunFig6(QuickDefaults(), false, core.ModeSymmetric); err == nil {
		t.Error("RunFig6 accepted a symmetric mode")
	}
}

func TestRunOverheadShape(t *testing.T) {
	res, err := RunOverhead(QuickDefaults())
	if err != nil {
		t.Fatal(err)
	}
	// The round-trip gap must be visible at both layers: the model
	// constants by construction, the simulator by measurement.
	if res.ModelSignalRoundTrip <= res.ModelLESTRoundTrip {
		t.Error("model: signal round trip not larger than LE/ST round trip")
	}
	if res.SimLESTRoundTrip <= 0 {
		t.Errorf("simulator LE/ST round trip = %f", res.SimLESTRoundTrip)
	}
	// The LE/ST round trip should be in the neighbourhood the paper
	// reports (~150 cycles): demand the right order of magnitude.
	if res.SimLESTRoundTrip > 1000 {
		t.Errorf("simulator LE/ST round trip %f cycles; expected hundreds at most", res.SimLESTRoundTrip)
	}
	if res.SimUncontendedIter <= 0 || res.SimPrimaryPerIter <= 0 {
		t.Error("primary iteration costs missing")
	}
	if !strings.Contains(res.Table().String(), "10,000 cycles") {
		t.Error("table missing paper reference note")
	}
}

func TestRunTheoremsAllPass(t *testing.T) {
	res := RunTheorems(0)
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(res.Rows))
	}
	if !res.AllPass() {
		t.Fatalf("theorem checks failed:\n%s", res.Table().String())
	}
}

func TestFig3bTraceMentionsProtocolSteps(t *testing.T) {
	trace := Fig3bTrace()
	for _, want := range []string{"linkbegin", "le ", "st.linked", "linkbranch", "drain"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
}

func TestDefaultsSane(t *testing.T) {
	d := Defaults()
	if d.Reps < 1 || d.Procs < 2 || len(d.ThreadCounts) == 0 || len(d.ReadWriteRatios) == 0 {
		t.Errorf("Defaults malformed: %+v", d)
	}
	q := QuickDefaults()
	if q.CellDuration >= d.CellDuration {
		t.Error("QuickDefaults not quicker than Defaults")
	}
}

func TestRunAblationsShape(t *testing.T) {
	opt := QuickDefaults()
	res, err := RunAblations(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Deeper store buffers must never make the fenced loop cheaper.
	if res.StoreBufferDepth[32] < res.StoreBufferDepth[2] {
		t.Errorf("depth sweep inverted: %v", res.StoreBufferDepth)
	}
	// The flush rule: different-location back-to-back l-mfences cost
	// more than same-location.
	if res.DoubleFlushDifferent <= res.DoubleFlushSame {
		t.Errorf("double-flush rule invisible: same=%.1f diff=%.1f",
			res.DoubleFlushSame, res.DoubleFlushDifferent)
	}
	if len(res.SignalCost) != 4 || len(res.SpinBudget) != 4 || len(res.PollInterval) != 5 {
		t.Errorf("sweep sizes wrong: %d %d %d",
			len(res.SignalCost), len(res.SpinBudget), len(res.PollInterval))
	}
	if len(res.Tables()) != 5 {
		t.Errorf("tables = %d, want 5", len(res.Tables()))
	}
}

func TestRunPacketProcShape(t *testing.T) {
	opt := QuickDefaults()
	res, err := RunPacketProc(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// Remote share must fall as locality rises, and the hardware-cost
	// speedup must not trail the signal-cost speedup at the highest
	// locality (the round trip is two orders of magnitude cheaper).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].RemoteShare > res.Rows[i-1].RemoteShare {
			t.Errorf("remote share not decreasing: %+v", res.Rows)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	if last.SpeedupHW <= 0 || last.SpeedupSW <= 0 {
		t.Error("nonpositive speedups")
	}
	if !strings.Contains(res.Table().String(), "Packet processing") {
		t.Error("table title wrong")
	}
}
