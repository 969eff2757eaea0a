package main

import (
	"fmt"
	"runtime"

	"repro/internal/litmus"
)

// layers is the explore-* traced run: engine counters of the run's own
// reps, one Workers=1 rep for parallel efficiency, the layer probe, and
// the residual that attributes what the probe does not price.
func (w *exploreWorkload) layers(e *env, parent int, reps []repSample, m *metrics) error {
	var sps, mallocs, gcs []float64
	for _, s := range reps {
		sps = append(sps, ratio(float64(s.states), s.wall.Seconds()))
		mallocs = append(mallocs, ratio(float64(s.mallocs), float64(s.states)))
		gcs = append(gcs, float64(s.gcCycles))
	}
	wall := medianWall(reps)
	states, transitions := float64(w.last.States), float64(w.last.Transitions)
	tps := ratio(transitions, states)
	m.set("litmus.states", states)
	m.set("litmus.transitions", transitions)
	m.set("litmus.transitions_per_state", tps)
	m.set("litmus.states_per_sec", median(sps))
	m.set("litmus.mallocs_per_state", median(mallocs))
	m.set("litmus.gc_cycles", median(gcs))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("litmus.peak_heap_mb", float64(ms.HeapSys)/(1<<20))
	for metric, gauge := range map[string]string{
		"litmus.visited_hit_rate":     "visited_hit_rate",
		"litmus.peak_visited_bytes":   "peak_visited_bytes",
		"litmus.states_per_byte":      "states_per_byte",
		"litmus.collapse_table_bytes": "collapse_table_bytes",
	} {
		if v, ok := w.last.Obs.Gauges[gauge]; ok {
			m.set(metric, v)
		}
	}

	// One worker against W: the same exploration, the same verdict.
	one := w.in.options()
	one.Workers = 1
	id := e.tr.begin("litmus.Explore[workers=1]", parent)
	r1 := litmus.Explore(w.in.build, one)
	e.tr.end(id, 1)
	if got, want := w.pinOf(&r1), w.pinOf(&w.last); got != want {
		return fmt.Errorf("%s: Workers=1 verdict %+v differs from Workers=%d verdict %+v", w.workloadName, got, workers, want)
	}
	m.set("litmus.states_per_sec_w1", r1.StatesPerSec())
	m.set("litmus.parallel_efficiency", ratio(median(sps), workers*r1.StatesPerSec()))

	if w.collapseProbe {
		// The hashed program with the exact visited set switched on: what
		// collapse compression costs where nothing needs it.
		on := w.in.options()
		on.Collapse = true
		id := e.tr.begin("litmus.Explore[collapse]", parent)
		rc := litmus.Explore(w.in.build, on)
		e.tr.end(id, 1)
		if rc.States != w.last.States {
			return fmt.Errorf("%s: collapse changed the state count %d -> %d", w.workloadName, w.last.States, rc.States)
		}
		m.set("litmus.collapse_overhead_share", ratio(rc.Elapsed.Seconds(), wall)-1)
	}

	walk := e.tr.begin("probe.walk", parent)
	p := walkStates(w.in.build, e.scale.probeStates, e.seed)
	e.tr.end(walk, len(p.states))
	c := p.measure(e, parent, &w.in, m)

	// cpu_ns_per_state is everything the W workers spent per state; the
	// residual is that minus the priced calls, so the parts sum to the
	// whole by construction. The engine checks the properties and lists
	// the enabled actions once per state, steps and keys a state once per
	// transition, and copies the parent for every successor but the last,
	// which it applies in place: transitions - states + final states
	// copies. What is left is visited-set claims, work stealing, trace
	// bookkeeping, allocation, cache misses above the probe's warm prices
	// and (explore-por) the ample/sleep-set analysis with its proviso
	// probes.
	finals := w.last.Deadlocks
	for _, n := range w.last.Outcomes {
		finals += n
	}
	copies := max(0, ratio(transitions-states+float64(finals), states))
	cpu := ratio(workers*wall*1e9, states)
	identity := c.fingerprint
	if w.in.opts.Collapse {
		// The exact visited set keys a state by the collapsed tuple of its
		// canonical representative instead of hashing a fingerprint.
		identity = c.canonicalize + c.collapse
	}
	m.set("litmus.cpu_ns_per_state", cpu)
	m.set("litmus.engine_residual_ns_per_state",
		cpu-c.enabled-c.property-tps*(c.step(p)+identity)-copies*c.copyFrom)
	return nil
}
