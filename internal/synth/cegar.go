package synth

import (
	"fmt"
	"sort"
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
// minimality pass.
//
// Two accelerators bolt onto the plain loop, both strictly optional
// (zero Options disable them) and both quarantined from the result's
// guarantees:
//
//   - Options.ReorderBound screens each candidate with a
//     reorder-bounded exploration before the exact reduced check. The
//     bounded semantics under-approximates TSO, so a bounded violation
//     is a real violation and the candidate is refuted without an exact
//     run; a bounded-safe screen proves nothing and always falls
//     through. SAT verdicts therefore only ever come from exact runs,
//     and Unrepairable/ErrBudget are only ever concluded from exact
//     runs (a bounded trace that *suggests* unrepairability triggers an
//     exact re-verification first). A bound ≥ the store-buffer depth
//     removes nothing, so it runs no screen (an unreduced exact run).
//
//   - Options.Prefilter seeds the constraint set with static critical
//     cycles and prunes off-cycle sites from the lattice (static.go).
//     The empty placement is still verified first — a safe program
//     reports zero fences no matter what the static analysis imagined —
//     pruned sites are restored the moment a counterexample implicates
//     one, and the minimality pass strips any fence only a seed (not a
//     counterexample) demanded, without flagging AssumptionViolated.

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
	// pruned holds the sites the static prefilter removed from bySite;
	// restoreImplicated moves them back when a counterexample's repair
	// window lands on one.
	pruned map[siteKey]Site

	// cexCons are the counterexample-derived constraints only (no
	// prefilter seeds): the set whose violation by a safe weakening
	// means the monotonicity assumption actually failed.
	cexCons []constraint

	tested map[string]*verdict
	res    *Result
}

// verdict is one memoized verification outcome.
type verdict struct {
	res     litmus.Result
	spliced []*tso.Spliced
	build   func() *tso.Machine

	// bounded marks a verdict produced by the reorder-bounded screen:
	// always a violation (safe screens fall through to the exact
	// engine, so SAT verdicts are exact by construction).
	bounded bool
	// screened marks that the bounded screen ran at all;
	// screenStates counts the states it burned when it missed and the
	// exact run had to follow.
	screened     bool
	screenStates int
}

func (v *verdict) sat() bool {
	return v.res.Violations == 0 && v.res.Deadlocks == 0 && !v.res.Truncated
}

// spliceCandidate applies a placement to every thread's base program.
func spliceCandidate(progs []*tso.Program, p Placement, scratch tso.Reg) []*tso.Spliced {
	out := make([]*tso.Spliced, len(progs))
	for t, prog := range progs {
		out[t] = tso.Splice(prog, p.edits(t, scratch))
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

// verifyOne model-checks a single candidate placement: the bounded
// screen first when Options.ReorderBound binds (is below the buffer
// depth), the exact reduced check unless the screen refuted the candidate.
func (s *synthesizer) verifyOne(p Placement) *verdict {
	spliced := spliceCandidate(s.prob.Programs, p, s.opts.scratch())
	build := builderFor(s.prob.Config, spliced)
	v := &verdict{spliced: spliced, build: build}
	if b := s.opts.ReorderBound; b > 0 && b < s.prob.Config.StoreBufferDepth {
		v.screened = true
		br := litmus.Explore(build, litmus.Options{
			Properties:      []litmus.Property{s.prob.Property},
			Workers:         s.opts.Workers,
			MaxStates:       s.opts.MaxStates,
			StopOnViolation: true,
			ReorderBound:    b,
			Model:           s.prob.Config.Model,
		})
		if br.Violations > 0 {
			// The bounded state graph is a subgraph of the exact one, so
			// this violation (and its trace) is real — even when the
			// bounded run was itself truncated.
			v.res = br
			v.bounded = true
			return v
		}
		v.screenStates = br.States
	}
	v.res = litmus.Explore(build, litmus.Options{
		Properties:      []litmus.Property{s.prob.Property},
		Workers:         s.opts.Workers,
		MaxStates:       s.opts.MaxStates,
		StopOnViolation: true,
		Model:           s.prob.Config.Model,
		// Partial-order reduction preserves exactly what the verifier
		// needs — violation reachability for the stable safety property —
		// while shrinking each query's state space. (Under PSO the
		// engine forces reduction off; the flag is then inert.)
		Reduction: true,
	})
	return v
}

// record books a freshly-computed verdict into the memo table and the
// result counters.
func (s *synthesizer) record(p Placement, v *verdict) {
	s.tested[p.key()] = v
	s.res.CandidatesChecked++
	s.res.StatesExplored += v.res.States + v.screenStates
	if v.screened {
		s.res.BoundedChecks++
	}
	if v.bounded {
		s.res.BoundedHits++
	} else {
		s.res.ExactChecks++
	}
}

// verifyBatch verifies one frontier concurrently, a goroutine per
// candidate, and memoizes each verdict. Results align with batch order,
// so downstream constraint accumulation is deterministic regardless of
// verification scheduling.
func (s *synthesizer) verifyBatch(batch []Placement) []*verdict {
	verdicts := make([]*verdict, len(batch))
	var wg sync.WaitGroup
	for i, p := range batch {
		wg.Add(1)
		go func(i int, p Placement) {
			defer wg.Done()
			verdicts[i] = s.verifyOne(p)
		}(i, p)
	}
	wg.Wait()
	for i, p := range batch {
		s.record(p, verdicts[i])
	}
	return verdicts
}

// reverifyExact forces an exact (unbounded, reduced) verification of a
// placement whose screen verdict is about to support a terminal
// conclusion. The exact verdict replaces the memoized one. It errors on
// budget truncation, on introduced deadlocks, and — defensively — if
// the exact engine fails to reproduce a violation the bounded screen
// found, which the under-approximation contract makes impossible.
func (s *synthesizer) reverifyExact(p Placement) (*verdict, error) {
	spliced := spliceCandidate(s.prob.Programs, p, s.opts.scratch())
	build := builderFor(s.prob.Config, spliced)
	v := &verdict{spliced: spliced, build: build}
	v.res = litmus.Explore(build, litmus.Options{
		Properties:      []litmus.Property{s.prob.Property},
		Workers:         s.opts.Workers,
		MaxStates:       s.opts.MaxStates,
		StopOnViolation: true,
		Reduction:       true,
		Model:           s.prob.Config.Model,
	})
	s.record(p, v)
	if v.res.Truncated {
		return nil, fmt.Errorf("%w: candidate %v stopped after %d states",
			ErrBudget, p, v.res.States)
	}
	if v.res.Deadlocks > 0 {
		return nil, fmt.Errorf("synth: candidate %v introduces %d deadlocked states",
			p, v.res.Deadlocks)
	}
	if v.sat() {
		return nil, fmt.Errorf("synth: candidate %v: bounded violation not reproduced by the exact engine (reorder-bound under-approximation contract broken)", p)
	}
	s.res.Counterexamples++
	return v, nil
}

// restoreImplicated moves every pruned site implicated by the
// extraction's repair windows back into the candidate lattice,
// returning how many it restored. The static prefilter's pruning is
// heuristic; a real counterexample overrules it.
func (s *synthesizer) restoreImplicated(ex extraction) int {
	n := 0
	for k := range ex.repair {
		if site, ok := s.pruned[k]; ok {
			s.bySite[k] = site
			delete(s.pruned, k)
			n++
		}
	}
	s.res.RestoredSites += n
	return n
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

	start := time.Now()
	sites := Sites(prob.Programs)
	s := &synthesizer{
		prob:   prob,
		opts:   opts,
		sites:  sites,
		bySite: make(map[siteKey]Site, len(sites)),
		pruned: make(map[siteKey]Site),
		tested: make(map[string]*verdict),
		res:    &Result{Problem: prob.Name, Sites: sites},
	}
	for _, site := range sites {
		s.bySite[siteKey{site.Thread, site.Instr}] = site
	}
	res := s.res
	defer func() {
		res.Elapsed = time.Since(start)
		res.FillObs()
	}()

	var (
		constraints []constraint
		conKeys     = make(map[string]struct{})
		satisfying  []Placement
		lastUnsat   *verdict
		lastUnsatP  Placement
	)

	addConstraint := func(c constraint, fromCex bool) {
		if _, dup := conKeys[constraintKey(c)]; dup {
			return
		}
		conKeys[constraintKey(c)] = struct{}{}
		constraints = append(constraints, c)
		if fromCex {
			s.cexCons = append(s.cexCons, c)
		}
	}

	// handleUnsat digests one violating verdict for placement p:
	// extract the trace's reordering windows, restore any pruned sites
	// they implicate, and either record a new constraint, drop the
	// candidate as dead, or conclude Unrepairable. Terminal conclusions
	// (stop=true) are only drawn from exact verdicts: a bounded verdict
	// heading toward one is re-verified exactly first and the exact
	// trace re-analyzed.
	var handleUnsat func(p Placement, v *verdict) (stop bool, err error)
	handleUnsat = func(p Placement, v *verdict) (bool, error) {
		lastUnsat, lastUnsatP = v, p
		exactify := func() (bool, error) {
			nv, err := s.reverifyExact(p)
			if err != nil {
				return false, err
			}
			return handleUnsat(p, nv)
		}
		ex := analyzeTrace(v.build, v.spliced, v.res.ViolationTrace)
		if !ex.windows {
			// The property fails without any store/load reordering: no
			// fence of any kind can help. Conclude only from an exact run.
			if v.bounded {
				return exactify()
			}
			res.Unrepairable = true
			res.Counterexample = litmus.FormatTrace(v.build, v.res.ViolationTrace)
			return true, nil
		}
		c := buildConstraint(ex, s.bySite, p, s.opts)
		if len(c) == 0 && s.restoreImplicated(ex) > 0 {
			c = buildConstraint(ex, s.bySite, p, s.opts)
		}
		if len(c) == 0 {
			// Reordering windows exist but no allowed atom is strictly
			// stronger than this candidate at any of them.
			if p.Len() == 0 {
				// Even the full lattice above the empty placement is
				// powerless under the allowed kinds.
				if v.bounded {
					return exactify()
				}
				res.Unrepairable = true
				res.Counterexample = litmus.FormatTrace(v.build, v.res.ViolationTrace)
				return true, nil
			}
			return false, nil // candidate dead; memoization keeps it untried
		}
		addConstraint(c, true)
		return false, nil
	}

	if opts.Prefilter {
		info := prefilterAnalyze(prob.Programs)
		res.PrefilterCycles = len(info.cycleSites)
		if len(info.cycleSites) > 0 {
			// Verify the empty placement before believing any static
			// cycle: a program that is already safe must report zero
			// fences whatever the analysis imagined, and a violating one
			// hands the seeds a real counterexample to combine with.
			res.Rounds++
			v := s.verifyBatch([]Placement{{}})[0]
			if v.res.Truncated && !v.bounded {
				return nil, fmt.Errorf("%w: candidate %v stopped after %d states",
					ErrBudget, Placement{}, v.res.States)
			}
			if v.res.Deadlocks > 0 {
				return nil, fmt.Errorf("synth: candidate %v introduces %d deadlocked states",
					Placement{}, v.res.Deadlocks)
			}
			if v.sat() {
				satisfying = append(satisfying, Placement{})
			} else {
				res.Counterexamples++
				stop, err := handleUnsat(Placement{}, v)
				if err != nil {
					return nil, err
				}
				if stop {
					return res, nil
				}
				for _, c := range info.seedConstraints(s.bySite, opts) {
					addConstraint(c, false)
					res.PrefilterSeeds++
				}
				for _, site := range info.prunable(sites) {
					k := siteKey{site.Thread, site.Instr}
					delete(s.bySite, k)
					s.pruned[k] = site
				}
				res.PrunedSites = len(s.pruned)
			}
		}
	}

	for {
		if frontierHook != nil {
			frontierHook(constraints, opts.MaxFences)
		}
		t0 := time.Now()
		frontier, nodes := minimalHittingSets(constraints, opts.MaxFences)
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
			if v.res.Truncated && !v.bounded {
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
			stop, err := handleUnsat(p, v)
			if err != nil {
				return nil, err
			}
			if stop {
				return res, nil
			}
		}
	}

	if len(satisfying) == 0 {
		// Every hitting set of the accumulated constraints was refuted.
		// Each refutation is a real violation (bounded ones included),
		// but the reported witness must come from an exact run: a
		// screen-produced last counterexample is re-verified exactly.
		if lastUnsat != nil && lastUnsat.bounded {
			nv, err := s.reverifyExact(lastUnsatP)
			if err != nil {
				return nil, err
			}
			lastUnsat = nv
		}
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

// hitsAllCex reports whether p hits every counterexample-derived
// constraint (prefilter seeds excluded).
func (s *synthesizer) hitsAllCex(p Placement) bool {
	for _, c := range s.cexCons {
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
// counterexample-derived constraint flags AssumptionViolated — the
// monotonicity assumption demonstrably failed. A safe weakening that
// only un-hits prefilter seed constraints is the expected cleanup of a
// false-positive static cycle and is substituted silently.
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
					if !s.hitsAllCex(w) {
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
