package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Change is one metric's movement between two bench files.
type Change struct {
	Experiment string
	Metric     string
	Old, New   float64
	// Rel is the signed relative change (new-old)/|old|.
	Rel float64
	// Regression is set when the change moves in the metric's bad
	// direction by more than the diff threshold.
	Regression bool
}

// Key is the fully qualified metric name.
func (c Change) Key() string { return c.Experiment + "/" + c.Metric }

// Report is the outcome of comparing two bench files.
type Report struct {
	Threshold float64
	// Changes lists every metric whose relative movement exceeds the
	// threshold, regressions and improvements alike, sorted by key.
	Changes []Change
	// Missing lists experiment/metric keys present in the old file but
	// absent from the new one — a silently dropped measurement is
	// treated as a failure, exactly the bug class that motivated the
	// fig4 fix.
	Missing []string
	// Added lists keys present only in the new file (informational).
	Added []string
	// Notes are caveats about the comparison itself (informational),
	// such as the two files having run at different GOMAXPROCS.
	Notes []string
}

// Regressions returns only the regressing changes.
func (r *Report) Regressions() []Change {
	var out []Change
	for _, c := range r.Changes {
		if c.Regression {
			out = append(out, c)
		}
	}
	return out
}

// Failed reports whether the comparison should fail a pipeline: any
// regression beyond the threshold, or any dropped metric.
func (r *Report) Failed() bool {
	return len(r.Missing) > 0 || len(r.Regressions()) > 0
}

// String renders the report for terminals and CI logs.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchdiff: threshold %.1f%%\n", r.Threshold*100)
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "  note        %s\n", n)
	}
	for _, k := range r.Missing {
		fmt.Fprintf(&sb, "  MISSING     %s (present in old, absent in new)\n", k)
	}
	for _, c := range r.Changes {
		tag := "improvement"
		if c.Regression {
			tag = "REGRESSION"
		}
		fmt.Fprintf(&sb, "  %-11s %s: %.4g -> %.4g (%+.1f%%)\n",
			tag, c.Key(), c.Old, c.New, c.Rel*100)
	}
	for _, k := range r.Added {
		fmt.Fprintf(&sb, "  added       %s\n", k)
	}
	if len(r.Missing) == 0 && len(r.Changes) == 0 {
		sb.WriteString("  no changes beyond threshold\n")
	}
	return sb.String()
}

// Diff compares two bench files metric by metric. threshold is the
// relative change (e.g. 0.10 for 10%) beyond which a movement is
// reported; movements in a metric's bad direction are regressions.
func Diff(old, cur *File, threshold float64) *Report {
	rep := &Report{Threshold: threshold}
	if old.GOMAXPROCS != cur.GOMAXPROCS {
		// A one-worker exploration gets one visited stripe and a wider
		// one 256, so memory and throughput rows move with it.
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"gomaxprocs differ: old %d, new %d; worker-count-dependent rows (peak_visited_bytes, states_per_sec) do not compare",
			old.GOMAXPROCS, cur.GOMAXPROCS))
	}
	for expName, oldExp := range old.Experiments {
		curExp, ok := cur.Experiments[expName]
		if !ok {
			rep.Missing = append(rep.Missing, expName)
			continue
		}
		for mName, om := range oldExp.Metrics {
			nm, ok := curExp.Metrics[mName]
			if !ok {
				rep.Missing = append(rep.Missing, expName+"/"+mName)
				continue
			}
			c := Change{Experiment: expName, Metric: mName, Old: om.Value, New: nm.Value}
			switch {
			case om.Value == nm.Value:
				continue
			case om.Value == 0:
				// No baseline to scale by; report as full-scale change.
				c.Rel = 1
			default:
				c.Rel = (nm.Value - om.Value) / abs(om.Value)
			}
			if abs(c.Rel) <= threshold {
				continue
			}
			if om.HigherIsBetter {
				c.Regression = c.Rel < 0
			} else {
				c.Regression = c.Rel > 0
			}
			rep.Changes = append(rep.Changes, c)
		}
		for mName := range curExp.Metrics {
			if _, ok := oldExp.Metrics[mName]; !ok {
				rep.Added = append(rep.Added, expName+"/"+mName)
			}
		}
		diffOverflow(rep, expName, oldExp, curExp, threshold)
	}
	for expName := range cur.Experiments {
		if _, ok := old.Experiments[expName]; !ok {
			rep.Added = append(rep.Added, expName)
		}
	}
	sort.Strings(rep.Missing)
	sort.Strings(rep.Added)
	sort.Slice(rep.Changes, func(i, j int) bool { return rep.Changes[i].Key() < rep.Changes[j].Key() })
	return rep
}

// diffOverflow compares per-histogram overflow-bucket counts between
// the two experiments' obs snapshots. Observations escaping a
// histogram's calibrated range are a latency regression in their own
// right even when the mean stays flat, so overflow growth beyond the
// threshold regresses the diff. Histograms absent on either side are
// skipped rather than reported Missing: obs snapshots are optional
// detail, not part of the guarded metric contract.
func diffOverflow(rep *Report, expName string, oldExp, curExp Experiment, threshold float64) {
	if oldExp.Obs == nil || curExp.Obs == nil {
		return
	}
	for hName, oh := range oldExp.Obs.Histograms {
		ch, ok := curExp.Obs.Histograms[hName]
		if !ok {
			continue
		}
		ov, nv := float64(oh.OverflowCount()), float64(ch.OverflowCount())
		if ov == nv {
			continue
		}
		c := Change{Experiment: expName, Metric: "obs_overflow/" + hName, Old: ov, New: nv}
		if ov == 0 {
			c.Rel = 1
		} else {
			c.Rel = (nv - ov) / ov
		}
		if abs(c.Rel) <= threshold {
			continue
		}
		// Overflow counts are strictly lower-is-better.
		c.Regression = c.Rel > 0
		rep.Changes = append(rep.Changes, c)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
