package main

import (
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/tso"
)

// The layer probe prices the simulator calls the engine makes per state
// and per transition, from outside: the driver walks the first
// probeStates distinct states of a workload's program itself, using
// only the public tso API, keeps the machines, and then times each call
// class over all of them in batches. The engine expands a state it has
// just produced, so its calls run on warm cache lines; 50,000 kept
// machines are 100 MB and stone cold. Each batch therefore takes the
// states in chunks of probeChunk (which fit the L2 cache), touches a
// chunk once untimed and times the second pass: one clock read per
// chunk of calls, never per call. What cache misses cost the engine on
// top of these warm prices lands in the residual.

// sink keeps the probe loops' results alive.
var sink int

type transition struct {
	state int32
	pid   arch.ProcID
}

type layerProbe struct {
	states        []*tso.Machine
	execs, drains []transition // every enabled transition of every kept state
	pool          []*tso.Machine
}

// probePasses is how often each batch is timed; the metric is the
// median pass.
const probePasses = 3

const probeChunk = 128

// walkStates explores build's machine in a seeded random order until n
// distinct states are kept (or the space is exhausted).
func walkStates(build func() *tso.Machine, n int, seed int64) *layerProbe {
	rng := rand.New(rand.NewSource(seed))
	p := &layerProbe{}
	root := build()
	seen := map[string]struct{}{string(root.Fingerprint(nil)): {}}
	p.states = append(p.states, root)
	frontier := []int32{0}
	scratch := root.Clone()
	var buf []byte
	try := func(from *tso.Machine, step func(m *tso.Machine)) {
		if len(p.states) >= n {
			return
		}
		scratch.CopyFrom(from)
		step(scratch)
		buf = scratch.Fingerprint(buf[:0])
		if _, dup := seen[string(buf)]; dup {
			return
		}
		seen[string(buf)] = struct{}{}
		frontier = append(frontier, int32(len(p.states)))
		p.states = append(p.states, scratch.Clone())
	}
	for len(frontier) > 0 && len(p.states) < n {
		i := rng.Intn(len(frontier))
		cur := p.states[frontier[i]]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for pid := range cur.Procs {
			pid := arch.ProcID(pid)
			if cur.CanExec(pid) {
				try(cur, func(m *tso.Machine) { m.ExecStep(pid) })
			}
			if cur.CanDrain(pid) {
				try(cur, func(m *tso.Machine) { m.DrainStep(pid) })
			}
		}
	}
	for i, s := range p.states {
		for pid := range s.Procs {
			pid := arch.ProcID(pid)
			if s.CanExec(pid) {
				p.execs = append(p.execs, transition{int32(i), pid})
			}
			if s.CanDrain(pid) {
				p.drains = append(p.drains, transition{int32(i), pid})
			}
		}
	}
	for i := 0; i < probeChunk; i++ {
		p.pool = append(p.pool, root.Clone())
	}
	return p
}

// timeBatch times pass probePasses times, one span each, and returns
// the median nanoseconds per call. pass returns the time its calls
// took, which excludes any re-priming it does between chunks.
func timeBatch(e *env, parent int, name string, calls int, pass func() time.Duration) float64 {
	if calls == 0 {
		return 0
	}
	var per []float64
	for i := 0; i < probePasses; i++ {
		d := pass()
		e.tr.add(name, parent, d, calls)
		per = append(per, float64(d.Nanoseconds())/float64(calls))
	}
	return median(per)
}

// overStates adapts a per-state call to timeBatch: per chunk, one
// untimed pass to warm it and one timed pass.
func (p *layerProbe) overStates(f func(m *tso.Machine)) func() time.Duration {
	return func() time.Duration {
		var total time.Duration
		for off := 0; off < len(p.states); off += probeChunk {
			chunk := p.states[off:min(off+probeChunk, len(p.states))]
			for _, s := range chunk {
				f(s)
			}
			start := time.Now()
			for _, s := range chunk {
				f(s)
			}
			total += time.Since(start)
		}
		return total
	}
}

// stepPass applies step to a primed copy of each transition's source
// state, timing only the step calls.
func (p *layerProbe) stepPass(ts []transition, step func(m *tso.Machine, pid arch.ProcID)) func() time.Duration {
	return func() time.Duration {
		var total time.Duration
		for off := 0; off < len(ts); off += probeChunk {
			chunk := ts[off:min(off+probeChunk, len(ts))]
			for j, t := range chunk {
				p.pool[j].CopyFrom(p.states[t.state])
			}
			start := time.Now()
			for j, t := range chunk {
				step(p.pool[j], t.pid)
			}
			total += time.Since(start)
		}
		return total
	}
}

// layerCosts are the probe's per-call prices in nanoseconds.
type layerCosts struct {
	enabled, execStep, drainStep, copyFrom, fingerprint float64
	collapse, canonicalize, property                    float64
}

// step is the price of the average transition in the probe's mix.
func (c layerCosts) step(p *layerProbe) float64 {
	n := float64(len(p.execs) + len(p.drains))
	return ratio(c.execStep*float64(len(p.execs))+c.drainStep*float64(len(p.drains)), n)
}

// measure times every call class over the kept states and records the
// tso, mesi, storebuf and property metrics.
func (p *layerProbe) measure(e *env, parent int, in *exploreInput, m *metrics) layerCosts {
	var c layerCosts
	n := len(p.states)
	procs := len(p.states[0].Procs)
	scratch := p.pool[0]
	var buf, key, cscratch []byte

	c.enabled = timeBatch(e, parent, "tso.CanExec+CanDrain", n, p.overStates(func(s *tso.Machine) {
		for pid := range s.Procs {
			if s.CanExec(arch.ProcID(pid)) {
				sink++
			}
			if s.CanDrain(arch.ProcID(pid)) {
				sink++
			}
		}
	}))
	c.execStep = timeBatch(e, parent, "tso.ExecStep", len(p.execs),
		p.stepPass(p.execs, func(s *tso.Machine, pid arch.ProcID) { s.ExecStep(pid) }))
	c.drainStep = timeBatch(e, parent, "tso.DrainStep", len(p.drains),
		p.stepPass(p.drains, func(s *tso.Machine, pid arch.ProcID) { s.DrainStep(pid) }))
	c.copyFrom = timeBatch(e, parent, "tso.CopyFrom", n, p.overStates(func(s *tso.Machine) { scratch.CopyFrom(s) }))
	c.fingerprint = timeBatch(e, parent, "tso.Fingerprint", n, p.overStates(func(s *tso.Machine) {
		buf = s.Fingerprint(buf[:0])
	}))
	fpBytes := 0
	for _, s := range p.states {
		fpBytes += len(s.Fingerprint(buf[:0]))
	}
	col := tso.NewCollapser()
	c.collapse = timeBatch(e, parent, "tso.Collapser.Collapse", n, p.overStates(func(s *tso.Machine) {
		key = col.Collapse(s, key[:0], &cscratch)
	}))
	entries, _ := col.Stats()
	if in.sym != nil {
		canon := tso.NewCanonicalizer(in.sym, p.states[0])
		c.canonicalize = timeBatch(e, parent, "tso.Canonicalizer.Canonicalize", n, p.overStates(func(s *tso.Machine) {
			rep, _ := canon.Canonicalize(s)
			sink += len(rep.Procs)
		}))
	}
	c.property = timeBatch(e, parent, "litmus.MutualExclusion", n, p.overStates(func(s *tso.Machine) {
		if litmus.MutualExclusion(s) != nil {
			sink++
		}
	}))

	m.set("tso.enabled_ns", c.enabled)
	m.set("tso.exec_step_ns", c.execStep)
	m.set("tso.drain_step_ns", c.drainStep)
	m.set("tso.copy_from_ns", c.copyFrom)
	m.set("tso.fingerprint_ns", c.fingerprint)
	m.set("tso.fingerprint_bytes", ratio(float64(fpBytes), float64(n)))
	m.set("tso.collapse_ns", c.collapse)
	m.set("tso.collapse_table_entries", float64(entries))
	m.set("tso.canonicalize_ns", c.canonicalize)
	m.set("litmus.property_ns", c.property)

	m.set("mesi.copy_from_ns", timeBatch(e, parent, "mesi.System.CopyFrom", n,
		p.overStates(func(s *tso.Machine) { scratch.Sys.CopyFrom(s.Sys) })))
	m.set("mesi.fingerprint_ns", timeBatch(e, parent, "mesi.System.Fingerprint", n,
		p.overStates(func(s *tso.Machine) { buf = s.Sys.Fingerprint(buf[:0]) })))
	m.set("storebuf.copy_from_ns", timeBatch(e, parent, "storebuf.Buffer.CopyFrom", n*procs,
		p.overStates(func(s *tso.Machine) {
			for i, sp := range s.Procs {
				scratch.Procs[i].SB.CopyFrom(sp.SB)
			}
		})))
	m.set("storebuf.fingerprint_ns", timeBatch(e, parent, "storebuf.Buffer.Fingerprint", n*procs,
		p.overStates(func(s *tso.Machine) {
			for _, sp := range s.Procs {
				buf = sp.SB.Fingerprint(buf[:0])
			}
		})))

	const builds = 2000
	m.set("tso.new_machine_us", timeBatch(e, parent, "tso.NewMachine", builds, func() time.Duration {
		start := time.Now()
		for i := 0; i < builds; i++ {
			sink += len(in.build().Procs)
		}
		return time.Since(start)
	})/1e3)
	return c
}
