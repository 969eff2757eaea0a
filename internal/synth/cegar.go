package synth

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/tso"
)

// This file is the synthesis driver: propose the irredundant hitting
// sets of the known constraints, verify each proposal on the parallel
// exploration engine, extract a new constraint from each
// counterexample, and repeat until the frontier has no untested member.
// Every verdict is memoized by placement key, so a placement is
// model-checked at most once across the CEGAR loop and the final
// minimality pass, and every thread's program is spliced at most once
// per edit set it is given.

// frontierHook, when non-nil, sees each constraint set Synthesize
// enumerates a frontier for. Tests set it to hold minimalHittingSets to
// its definition on the sets real scenarios produce.
var frontierHook func(constraints []constraint, maxFences int)

// synthesizer carries the per-run state of one Synthesize call.
type synthesizer struct {
	prob   Problem
	opts   Options
	sites  []Site
	bySite map[siteKey]Site

	// cons are the constraints extracted from counterexamples so far.
	cons []constraint

	// spliced caches each thread's program under each edit set a
	// candidate gives it, keyed by spliceKey: sibling candidates differ
	// in one or two threads, so most threads splice once per run.
	// verifyBatch fills it before any exploration starts.
	spliced map[string]*tso.Spliced
	keyBuf  []byte

	tested map[string]*verdict
	res    *Result
}

// verdict is one memoized verification outcome.
type verdict struct {
	res     litmus.Result
	spliced []*tso.Spliced
	build   func() *tso.Machine
}

func (v *verdict) sat() bool {
	return v.res.Violations == 0 && v.res.Deadlocks == 0 && !v.res.Truncated
}

// spliceKey appends the cache key of thread t's share of p to dst: the
// thread, then instr.kind per atom of that thread.
func spliceKey(dst []byte, p Placement, t int) []byte {
	dst = strconv.AppendInt(dst, int64(t), 10)
	for _, a := range p {
		if a.Thread != t {
			continue
		}
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(a.Instr), 10)
		dst = append(dst, '.')
		dst = strconv.AppendUint(dst, uint64(a.Kind), 10)
	}
	return dst
}

// splice applies a placement to every thread's base program, through
// the per-run cache. Not safe for concurrent use.
func (s *synthesizer) splice(p Placement) []*tso.Spliced {
	out := make([]*tso.Spliced, len(s.prob.Programs))
	for t, prog := range s.prob.Programs {
		s.keyBuf = spliceKey(s.keyBuf[:0], p, t)
		sp, ok := s.spliced[string(s.keyBuf)]
		if !ok {
			sp = tso.Splice(prog, p.edits(t, s.opts.scratch()))
			s.spliced[string(s.keyBuf)] = sp
		}
		out[t] = sp
	}
	return out
}

func builderFor(cfg arch.Config, spliced []*tso.Spliced) func() *tso.Machine {
	progs := make([]*tso.Program, len(spliced))
	for i, sp := range spliced {
		progs[i] = sp.Prog
	}
	return func() *tso.Machine { return tso.NewMachine(cfg, progs...) }
}

// verify model-checks one spliced candidate with the reduced engine,
// stopping at the first violation.
func (s *synthesizer) verify(v *verdict) {
	v.res = litmus.Explore(v.build, litmus.Options{
		Properties:      []litmus.Property{s.prob.Property},
		Workers:         s.opts.Workers,
		MaxStates:       s.opts.MaxStates,
		StopOnViolation: true,
		// Partial-order reduction preserves exactly what the verifier
		// needs — violation reachability for the stable safety property —
		// while shrinking each query's state space. (Under PSO the
		// engine forces reduction off; the flag is then inert.)
		Reduction: true,
	})
}

// verifyBatch verifies one frontier concurrently, a goroutine per
// candidate, and memoizes each verdict. The candidates are spliced
// first, on the calling goroutine, so the splice cache needs no lock.
// Results align with batch order, so downstream constraint
// accumulation is deterministic regardless of verification scheduling.
func (s *synthesizer) verifyBatch(batch []Placement) []*verdict {
	verdicts := make([]*verdict, len(batch))
	for i, p := range batch {
		spliced := s.splice(p)
		verdicts[i] = &verdict{spliced: spliced, build: builderFor(s.prob.Config, spliced)}
	}
	var wg sync.WaitGroup
	for _, v := range verdicts {
		wg.Add(1)
		go func(v *verdict) {
			defer wg.Done()
			s.verify(v)
		}(v)
	}
	wg.Wait()
	for i, p := range batch {
		s.tested[p.key()] = verdicts[i]
		s.res.CandidatesChecked++
		s.res.StatesExplored += verdicts[i].res.States
	}
	return verdicts
}

// Synthesize runs counterexample-guided fence synthesis for the problem
// and returns the minimal repairing placements with the cost-optimal one
// designated. It returns an error (wrapping ErrBudget) if any exact
// verification exceeds Options.MaxStates — a truncated exploration
// proves nothing, so no placement is reported off the back of one.
func Synthesize(prob Problem, opts Options) (*Result, error) {
	if len(prob.Programs) == 0 {
		return nil, fmt.Errorf("synth: problem %q has no programs", prob.Name)
	}
	if prob.Property == nil {
		return nil, fmt.Errorf("synth: problem %q has no property", prob.Name)
	}
	if prob.Config.Procs < len(prob.Programs) {
		return nil, fmt.Errorf("synth: problem %q: %d programs for %d processors",
			prob.Name, len(prob.Programs), prob.Config.Procs)
	}

	return newSynthesizer(prob, opts).run()
}

// run is Synthesize's CEGAR loop and minimality pass over a validated
// problem.
func (s *synthesizer) run() (*Result, error) {
	prob, opts := s.prob, s.opts
	start := time.Now()
	res := s.res
	defer func() {
		res.Elapsed = time.Since(start)
		res.FillObs()
	}()

	var (
		conKeys    = make(map[string]struct{})
		satisfying []Placement
		lastUnsat  *verdict
	)

	for {
		if frontierHook != nil {
			frontierHook(s.cons, opts.MaxFences)
		}
		t0 := time.Now()
		frontier, nodes := minimalHittingSets(s.cons, opts.MaxFences)
		res.FrontierTime += time.Since(t0)
		res.FrontierNodes += nodes
		var todo []Placement
		for _, p := range frontier {
			if _, done := s.tested[p.key()]; !done {
				todo = append(todo, p)
			}
		}
		if len(todo) == 0 {
			break
		}
		res.Rounds++

		for i, v := range s.verifyBatch(todo) {
			p := todo[i]
			if v.res.Truncated {
				return nil, fmt.Errorf("%w: candidate %v stopped after %d states",
					ErrBudget, p, v.res.States)
			}
			if v.res.Deadlocks > 0 {
				return nil, fmt.Errorf("synth: candidate %v introduces %d deadlocked states",
					p, v.res.Deadlocks)
			}
			if v.sat() {
				satisfying = append(satisfying, p)
				continue
			}
			res.Counterexamples++
			lastUnsat = v
			// Extract the trace's reordering windows, then either record a
			// new constraint, drop the candidate as dead, or conclude
			// Unrepairable.
			ex := analyzeTrace(v.build, v.spliced, v.res.ViolationTrace)
			if !ex.windows {
				// The property fails without any store/load reordering: no
				// fence of any kind can help.
				res.Unrepairable = true
				res.Counterexample = litmus.FormatTrace(v.build, v.res.ViolationTrace)
				return res, nil
			}
			c := buildConstraint(ex, s.bySite, p, s.opts)
			if len(c) == 0 {
				// Reordering windows exist but no allowed atom is strictly
				// stronger than this candidate at any of them.
				if p.Len() == 0 {
					// Even the full lattice above the empty placement is
					// powerless under the allowed kinds.
					res.Unrepairable = true
					res.Counterexample = litmus.FormatTrace(v.build, v.res.ViolationTrace)
					return res, nil
				}
				continue // candidate dead; memoization keeps it untried
			}
			if _, dup := conKeys[constraintKey(c)]; !dup {
				conKeys[constraintKey(c)] = struct{}{}
				s.cons = append(s.cons, c)
			}
		}
	}

	if len(satisfying) == 0 {
		// Every hitting set of the accumulated constraints was refuted.
		res.Unrepairable = true
		if lastUnsat != nil {
			res.Counterexample = litmus.FormatTrace(lastUnsat.build, lastUnsat.res.ViolationTrace)
		}
		return res, nil
	}

	satisfying = subsetMinimal(satisfying)
	if !opts.SkipMinimalityCheck {
		satisfying = s.verifyMinimality(satisfying)
	}

	weights := opts.weights(len(prob.Programs))
	cm := prob.Config.Cost
	if opts.Cost != nil {
		cm = *opts.Cost
	}
	for _, p := range satisfying {
		res.Minimal = append(res.Minimal, Candidate{
			Placement: p,
			Cost:      placementCost(p, prob.Programs, cm, weights),
			States:    s.tested[p.key()].res.States,
		})
	}
	sort.Slice(res.Minimal, func(i, j int) bool {
		a, b := res.Minimal[i], res.Minimal[j]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if len(a.Placement) != len(b.Placement) {
			return len(a.Placement) < len(b.Placement)
		}
		return a.Placement.key() < b.Placement.key()
	})
	res.Optimal = &res.Minimal[0]
	return res, nil
}

// newSynthesizer sets up the per-run state of a synthesis of prob.
func newSynthesizer(prob Problem, opts Options) *synthesizer {
	sites := Sites(prob.Programs)
	s := &synthesizer{
		prob:    prob,
		opts:    opts,
		sites:   sites,
		bySite:  make(map[siteKey]Site, len(sites)),
		spliced: make(map[string]*tso.Spliced),
		tested:  make(map[string]*verdict),
		res:     &Result{Problem: prob.Name, Sites: sites},
	}
	for _, site := range sites {
		s.bySite[siteKey{site.Thread, site.Instr}] = site
	}
	return s
}

// subsetMinimal drops any satisfying placement that strictly contains
// another satisfying placement (same atoms plus more).
func subsetMinimal(ps []Placement) []Placement {
	var out []Placement
	for i, p := range ps {
		dominated := false
		for j, q := range ps {
			if i != j && len(q) < len(p) && q.subsetOf(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// hitsAll reports whether p hits every counterexample constraint.
func (s *synthesizer) hitsAll(p Placement) bool {
	for _, c := range s.cons {
		if !p.hits(c) {
			return false
		}
	}
	return true
}

// verifyMinimality model-checks the one-atom removals of each reported
// placement, iterating to a fixpoint: a substituted safe weakening is
// itself re-checked, so no reported placement retains any removable
// atom (the historical version stopped after one level and could leak a
// two-atoms-removable parent's half-weakened children as "minimal").
// Counterexample pruning rests on the assumption that fences only
// restrict behaviour; this pass replaces that assumption with checked
// fact for the reported results. A safe weakening that un-hits a
// counterexample constraint flags AssumptionViolated — the
// monotonicity assumption demonstrably failed.
func (s *synthesizer) verifyMinimality(satisfying []Placement) []Placement {
	var out []Placement
	work := satisfying
	for len(work) > 0 {
		// Collect every untested weakening across this level, verify
		// them as one parallel batch, then judge. Placements shrink by
		// one atom per level, so the loop terminates.
		var unknown []Placement
		seen := make(map[string]struct{})
		for _, p := range work {
			for i := range p {
				w := p.without(i)
				k := w.key()
				if _, done := s.tested[k]; done {
					continue
				}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				unknown = append(unknown, w)
			}
		}
		if len(unknown) > 0 {
			s.verifyBatch(unknown)
			for _, v := range unknown {
				if !s.tested[v.key()].sat() {
					s.res.Counterexamples++
				}
			}
		}

		var next []Placement
		for _, p := range work {
			minimal := true
			for i := range p {
				w := p.without(i)
				if s.tested[w.key()].sat() {
					minimal = false
					if !s.hitsAll(w) {
						s.res.AssumptionViolated = true
					}
					next = append(next, w)
				}
			}
			if minimal {
				out = append(out, p)
			}
		}
		work = dedupePlacements(next)
	}
	return subsetMinimal(dedupePlacements(out))
}

func dedupePlacements(ps []Placement) []Placement {
	seen := make(map[string]struct{}, len(ps))
	var out []Placement
	for _, p := range ps {
		if _, dup := seen[p.key()]; dup {
			continue
		}
		seen[p.key()] = struct{}{}
		out = append(out, p)
	}
	return out
}
