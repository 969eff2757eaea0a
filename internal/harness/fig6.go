package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rwlock"
	"repro/internal/signals"
	"repro/internal/stats"
)

// Fig6Cell is one (threads, ratio) point of the Fig. 6 sweep.
type Fig6Cell struct {
	Threads int
	Ratio   int // N in the N:1 read-to-write ratio
	// ReadsPerSec for the asymmetric lock (ARW or ARW+) and the SRW
	// baseline, and their quotient (the y-axis of Fig. 6).
	AsymReadsPerSec float64
	SRWReadsPerSec  float64
	Normalized      float64
	// SignalsSent / Writes on the asymmetric lock, to show the waiting
	// heuristic working.
	SignalsSent uint64
	Writes      uint64
}

// Fig6Result is one Fig. 6 panel: (a) ARW vs SRW, (b) ARW+ vs SRW.
type Fig6Result struct {
	Heuristic bool // false: Fig. 6(a) ARW; true: Fig. 6(b) ARW+
	AsymMode  core.Mode
	Cells     []Fig6Cell
	// Obs aggregates the asymmetric lock's statistics (reads, writes,
	// signals, heuristic acknowledgements, write-wait latency) over the
	// whole sweep; SRW baselines are excluded.
	Observed
}

// lockThroughput runs the paper's microbenchmark against one lock
// configuration: threads loop reading a 4-element array under the read
// lock; every ratio/threads reads, a thread performs a write (reader
// turned writer). It returns total reads per second and final stats.
func lockThroughput(l *rwlock.Lock, threads, ratio int, d time.Duration) float64 {
	return lockThroughputWork(l, threads, ratio, d, 0)
}

// lockThroughputWork is lockThroughput with readWork extra spin
// iterations held inside each read section (the ablations use it to
// lengthen read critical sections).
func lockThroughputWork(l *rwlock.Lock, threads, ratio int, d time.Duration, readWork int) float64 {
	var arr [4]int64 // the shared array of the microbenchmark
	var stop atomic.Bool
	var totalReads atomic.Int64

	writeEvery := ratio / threads
	if writeEvery <= 0 {
		writeEvery = 1
	}

	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		r := l.NewReader()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			reads := int64(0)
			var sink int64
			for n := 0; !stop.Load(); n++ {
				if n%writeEvery == writeEvery-1 {
					r.LockWrite()
					for j := range arr {
						arr[j]++
					}
					r.UnlockWrite()
					continue
				}
				r.Lock()
				for j := range arr {
					sink += arr[j]
				}
				if readWork > 0 {
					signals.Spin(readWork)
				}
				r.Unlock()
				reads++
			}
			totalReads.Add(reads)
			_ = sink
		}(i)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return float64(totalReads.Load()) / d.Seconds()
}

// RunFig6 reproduces Fig. 6(a) (heuristic=false) or Fig. 6(b)
// (heuristic=true): normalized read throughput of the asymmetric lock
// against the SRW baseline over the thread-count x read/write-ratio
// sweep. asymMode selects the software-signal or projected-hardware
// round-trip cost.
func RunFig6(opt Options, heuristic bool, asymMode core.Mode) (*Fig6Result, error) {
	if !asymMode.Asymmetric() {
		return nil, fmt.Errorf("harness: fig6 needs an asymmetric mode, got %v", asymMode)
	}
	res := &Fig6Result{Heuristic: heuristic, AsymMode: asymMode}
	for _, ratio := range opt.ReadWriteRatios {
		for _, threads := range opt.ThreadCounts {
			var opts []rwlock.Option
			if heuristic {
				opts = append(opts, rwlock.WithWaitingHeuristic(0))
			}
			asym := rwlock.New(asymMode, opt.Cost, opts...)
			asymTput := lockThroughput(asym, threads, ratio, opt.CellDuration)

			srw := rwlock.New(core.ModeSymmetric, opt.Cost)
			srwTput := lockThroughput(srw, threads, ratio, opt.CellDuration)

			cell := Fig6Cell{
				Threads:         threads,
				Ratio:           ratio,
				AsymReadsPerSec: asymTput,
				SRWReadsPerSec:  srwTput,
				SignalsSent:     asym.Stats.SignalsSent.Load(),
				Writes:          asym.Stats.Writes.Load(),
			}
			if srwTput > 0 {
				cell.Normalized = asymTput / srwTput
			}
			res.Obs.Merge(asym.Stats.Snapshot())
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Table renders the panel as Fig. 6 does: one series per read/write
// ratio over the thread counts.
func (r *Fig6Result) Table() *stats.Table {
	name := "ARW"
	panel := "6(a)"
	if r.Heuristic {
		name = "ARW+"
		panel = "6(b)"
	}
	t := stats.NewTable(
		fmt.Sprintf("Fig. %s: normalized read throughput, %s (%v) / SRW", panel, name, r.AsymMode),
		"ratio", "threads", name+" reads/s", "SRW reads/s", "normalized", "signals", "writes")
	for _, c := range r.Cells {
		t.AddRow(fmt.Sprintf("%d:1", c.Ratio), c.Threads,
			c.AsymReadsPerSec, c.SRWReadsPerSec, c.Normalized,
			c.SignalsSent, c.Writes)
	}
	t.AddNote("normalized > 1: the asymmetric lock reads faster than SRW")
	if r.Heuristic {
		t.AddNote("paper: ARW+ above 1 nearly everywhere (300:1 hovers near 1)")
	} else {
		t.AddNote("paper: ARW suffers at high thread counts / low ratios (writer signal bottleneck)")
	}
	return t
}
