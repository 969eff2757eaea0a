package litmus

import (
	"time"

	"repro/internal/tso"
)

// serialFrame is one DFS frame of the reference engine, carrying a full
// copy of the action trace and, under Options.Reduction, the sleep set
// the state was reached with.
type serialFrame struct {
	m     *tso.Machine
	trace []Action
	sleep actionMask
}

// ExploreSerial is the straightforward single-threaded reference engine:
// one DFS loop, a string-keyed visited map over full fingerprints, a
// fresh Machine clone per child, and per-frame trace copies. It is kept
// deliberately simple — no hashing, no sharing, no recycling — as the
// oracle the parallel engine is differentially tested against, and as
// the baseline BenchmarkExploreSerial measures. Production callers want
// Explore.
//
// With Options.Reduction the same loop drives its expansion through the
// shared reducer (reduce.go): the ample-set/sleep-set reduction the
// parallel engine runs, but deterministically (single-threaded DFS over
// exact fingerprints, where the parallel engine's sleep masks depend on
// arrival order), which makes it the reference for the *reduced* search
// too: reduced-parallel differential tests and the bench pipeline's
// pruning-ratio metrics both compare against it. Without a reducer every
// state expands fully, every sleep set is empty and no entry ever has a
// pruned action. TestExploreSerialPins holds both to absolute numbers.
func ExploreSerial(build func() *tso.Machine, opts Options) Result {
	start := time.Now()
	root := build()
	p := resolve(root, opts, nil, true)
	mdl, rd := p.model, p.red
	var canon *tso.Canonicalizer
	if p.sym != nil {
		canon = tso.NewCanonicalizer(p.sym, root)
	}
	// A reduced run under symmetry sleeps nothing. What breaks is the
	// ample sets' delegation, not the sleep sets: a state that expands
	// only an ample set leaves the excluded processors to later states,
	// and a sleep set on top leaves the ample actions it covers to a
	// sibling branch. That combined argument is well-founded on the
	// CONCRETE graph, where siblings are distinct states ordered by the
	// expansion. Under symmetry two siblings can land in the SAME visited
	// orbit (b = rho(a) with rho(s) = s), so a slept action's coverage
	// can chain back to the very orbit entry that slept it and a whole
	// terminal region is lost (TestSymmetryReducedDifferential catches it
	// with the masks kept). The sound combination is the classic one
	// (Emerson–Jutla–Sistla): ample sets plus the cycle proviso on the
	// quotient graph, with sleep sets disabled. Sleep sets alone delegate
	// no processor: with the revisit rule they keep every orbit (reduce.go,
	// "Sleep sets alone"), and the parallel engine runs them on every
	// unreduced symmetric exploration. This engine has no reducer there.
	sleepOn := canon == nil

	res := Result{Outcomes: make(map[Outcome]int)}
	// visited maps each state's fingerprint to the enabled actions its
	// first visit withheld, shrunk as later arrivals with smaller sleep
	// sets re-expand the difference.
	visited := make(map[string]actionMask)
	stack := []serialFrame{{m: root}}
	buf := make([]byte, 0, 256)
	probeBuf := make([]byte, 0, 256)
	var pl porScratch
	var ample, slept, reexp, probes, proviso uint64

	// push clones f.m, takes a on the clone and stacks the result.
	push := func(f serialFrame, a Action, sleep actionMask) {
		child := f.m.Clone()
		mdl.Apply(child, a)
		res.Transitions++
		tr := make([]Action, len(f.trace)+1)
		copy(tr, f.trace)
		tr[len(f.trace)] = a
		stack = append(stack, serialFrame{m: child, trace: tr, sleep: sleep})
	}

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m := f.m

		// Visited entries are keyed by (and their masks speak) the
		// canonical orbit representative; slot translates between the
		// live machine's processor numbering and the entry's.
		cm := m
		var slot []int
		if canon != nil {
			cm, slot = canon.Canonicalize(m)
		}
		buf = cm.Fingerprint(buf[:0])
		if pruned, seen := visited[string(buf)]; seen {
			sleepC := permuteMask(f.sleep, slot)
			missing := unpermuteMask(pruned&^sleepC, slot)
			if missing == 0 {
				continue
			}
			// The first visit slept actions this arrival's sleep set does
			// not justify; re-expand them (with empty child sleep sets).
			visited[string(buf)] = pruned & sleepC
			for _, a := range mdl.Enabled(nil, m) {
				if missing&maskOf(a) != 0 {
					push(f, a, 0)
					reexp++
				}
			}
			continue
		}
		if int64(res.States) >= p.maxStates {
			res.Truncated = true
			break
		}
		visited[string(buf)] = 0
		res.States++

		violated := false
		for _, prop := range opts.Properties {
			if err := prop(m); err != nil {
				res.Violations++
				violated = true
				if res.FirstViolation == nil {
					res.FirstViolation = err
					res.ViolationTrace = append([]Action(nil), f.trace...)
				}
				break
			}
		}
		if violated && opts.StopOnViolation {
			break
		}

		enabled := mdl.Enabled(nil, m)
		if len(enabled) == 0 {
			if m.Quiesced() {
				// Outcomes are recorded from the canonical representative so
				// every member of a symmetry orbit contributes the same
				// string, matching the parallel engine whichever member it
				// happens to reach first.
				res.Outcomes[outcomeOf(cm)]++
			} else {
				res.Deadlocks++
			}
			continue
		}
		if rd == nil {
			for _, a := range enabled {
				push(f, a, 0)
			}
			continue
		}

		rd.analyze(m, enabled, &pl)
		// Cycle proviso (closed-set form, see reduce.go): a proper ample
		// subset may only be used when none of its successors is already
		// visited — otherwise the reduced expansion could close a cycle
		// that postpones the excluded processors forever. The current
		// state itself is already in visited, so a pure self-loop (e.g.
		// "L: jmp L") trips the probe immediately. A tripped candidate's
		// processor is skipped and the next candidate tried; only when
		// all trip does the state expand fully. A candidate mayCycle
		// clears lies on no cycle and is not probed.
		for skip := uint32(0); pl.ample && rd.mayCycle(m, enabled, &pl); {
			if skip == 0 {
				probes++
			}
			seen := false
			for _, i := range pl.tidx {
				child := m.Clone()
				mdl.Apply(child, enabled[i])
				pcm := child
				if canon != nil {
					pcm, _ = canon.Canonicalize(child)
				}
				probeBuf = pcm.Fingerprint(probeBuf[:0])
				if _, ok := visited[string(probeBuf)]; ok {
					seen = true
					break
				}
			}
			if !seen {
				break
			}
			skip |= 1 << uint(enabled[pl.tidx[0]].Proc)
			proviso++
			rd.choose(m, enabled, &pl, skip)
		}
		z := f.sleep
		if !sleepOn {
			z = 0
		}
		if pl.ample && pl.tmask&^z == 0 && rd.mayCycle(m, enabled, &pl) {
			// A wholly asleep ample set on a possible cycle demotes to full
			// expansion (reduce.go, "Asleep ample sets").
			pl.fullExpand(enabled)
			proviso++
		}
		if pl.ample {
			ample++
		}
		rd.expansion(enabled, &pl, z)
		visited[string(buf)] = permuteMask(pl.pruned, slot)
		slept += uint64(pl.sleptCount())
		for k, i := range pl.idx {
			cs := pl.childSleep[k]
			if !sleepOn {
				cs = 0
			}
			push(f, enabled[i], cs)
		}
	}

	res.Elapsed = time.Since(start)
	if rd != nil {
		res.Obs.PutGauge("reduction", 1)
		res.Obs.PutCounter("por_ample_states", ample)
		res.Obs.PutCounter("por_slept_transitions", slept)
		res.Obs.PutCounter("por_reexpansions", reexp)
		res.Obs.PutCounter("por_proviso_probes", probes)
		res.Obs.PutCounter("por_proviso_fallbacks", proviso)
	}
	if canon != nil {
		res.Obs.PutGauge("symmetry", 1)
	}
	return res
}
