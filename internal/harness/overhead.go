package harness

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/stats"
	"repro/internal/tso"
	"runtime"
)

// OverheadResult reproduces §5's overhead comparison between the
// software prototype and the LE/ST mechanism.
type OverheadResult struct {
	// Simulator measurements (cycles).
	SimLESTRoundTrip   float64 // cycles charged to the secondary per broken link
	SimPrimaryPerIter  float64 // primary's cycles per l-mfence iteration under contention
	SimUncontendedIter float64 // primary's cycles per l-mfence iteration alone

	// Configured model constants (cycles).
	ModelSignalRoundTrip int
	ModelLESTRoundTrip   int

	// Real-goroutine handshake wall times (ns per round trip).
	RealSWRoundTripNs float64
	RealHWRoundTripNs float64

	// Obs aggregates the measured fences' mailbox metrics (round trips,
	// ack latency) across both real-goroutine measurements.
	Observed
}

// RunOverhead measures the communication round trips on both layers.
func RunOverhead(opt Options) (*OverheadResult, error) {
	res := &OverheadResult{
		ModelSignalRoundTrip: opt.Cost.SignalRoundTrip,
		ModelLESTRoundTrip:   opt.Cost.HWRoundTrip,
	}

	// --- Simulator: secondary repeatedly reads the guarded location.
	const iters = 2000
	cfg := arch.DefaultConfig()
	cfg.Cost = simCostModel(opt.Cost)
	m := tso.NewMachine(cfg,
		programs.RoundTripPrimary(iters),
		programs.RoundTripSecondary(iters))
	r := tso.NewRunner(m)
	if _, err := r.Run(); err != nil {
		return nil, fmt.Errorf("harness: overhead sim: %w", err)
	}
	sec := m.Procs[1]
	breaks := m.Procs[0].Stats.LinkBreaks
	if breaks == 0 {
		return nil, fmt.Errorf("harness: overhead sim broke no links")
	}
	// Isolate the round-trip surcharge: rerun the secondary alone
	// against an idle primary (no links to break) and subtract.
	m2 := tso.NewMachine(cfg, nil, programs.RoundTripSecondary(iters))
	r2 := tso.NewRunner(m2)
	baseline, err := r2.RunProc(1)
	if err != nil {
		return nil, err
	}
	res.SimLESTRoundTrip = float64(sec.Clock-baseline) / float64(breaks)

	// Primary per-iteration cost, contended vs alone.
	res.SimPrimaryPerIter = float64(m.Procs[0].Clock) / float64(iters)
	m3 := tso.NewMachine(cfg, programs.RoundTripPrimary(iters))
	alone, err := tso.NewRunner(m3).RunProc(0)
	if err != nil {
		return nil, err
	}
	res.SimUncontendedIter = float64(alone) / float64(iters)

	// --- Real goroutines: measure one serialization round trip under
	// each cost profile, with an actively polling primary.
	measure := func(mode core.Mode) float64 {
		f := core.NewLocationFence(mode, opt.Cost)
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					f.Poll()
					// Yield every poll so the handshake progresses at
					// scheduler speed even on single-CPU machines (a
					// hot-looping primary would otherwise add ~10ms of
					// preemption latency per round trip).
					runtime.Gosched()
				}
			}
		}()
		const n = 300
		secs := stats.MeasureSeconds(1, func() {
			for i := 0; i < n; i++ {
				f.Serialize()
			}
		})
		close(stop)
		res.Obs.Merge(f.ObsSnapshot())
		return secs[0] * 1e9 / n
	}
	res.RealSWRoundTripNs = measure(core.ModeAsymmetricSW)
	res.RealHWRoundTripNs = measure(core.ModeAsymmetricHW)
	return res, nil
}

// Table renders the §5 overhead comparison.
func (r *OverheadResult) Table() *stats.Table {
	t := stats.NewTable(
		"§5 overhead comparison: software prototype vs LE/ST hardware",
		"quantity", "value")
	t.AddRow("signal round trip, model (cycles)", fmt.Sprintf("%d", r.ModelSignalRoundTrip))
	t.AddRow("LE/ST round trip, model (cycles)", fmt.Sprintf("%d", r.ModelLESTRoundTrip))
	t.AddRow("LE/ST round trip, simulator (cycles)", r.SimLESTRoundTrip)
	t.AddRow("primary l-mfence iter, alone (cycles)", r.SimUncontendedIter)
	t.AddRow("primary l-mfence iter, contended (cycles)", r.SimPrimaryPerIter)
	t.AddRow("goroutine round trip, SW profile (ns)", r.RealSWRoundTripNs)
	t.AddRow("goroutine round trip, HW profile (ns)", r.RealHWRoundTripNs)
	t.AddNote("paper: ~10,000 cycles per signal round trip vs ~150 cycles for LE/ST")
	return t
}
