package main

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/programs"
	"repro/internal/tso"
)

// exploreSetupReps: an explore set-up is tens of milliseconds (program
// construction, symmetry validation and a 2-process warm-up
// exploration), so it is timed often enough for a steady median.
const exploreSetupReps = 15

// exploreInput is one protocol instance with the engine options its
// workload explores it under.
type exploreInput struct {
	program string
	cfg     arch.Config
	progs   []*tso.Program
	sym     *tso.Symmetry // validated in setup; nil when the programs are not a ring
	opts    litmus.Options
}

func (in *exploreInput) build() *tso.Machine { return tso.NewMachine(in.cfg, in.progs...) }

// exploreWorkload is explore-plain, explore-quotient or explore-por:
// one litmus.Explore of one protocol instance per rep, the verdict
// checked against golden.json.
type exploreWorkload struct {
	workloadName string
	// make builds the n-process instance; setup calls it for the scale's
	// N and for the 2-process warm-up.
	make func(n int, sc scale) exploreInput
	// pinCounts: state and transition counts repeat exactly and are
	// pinned (not under partial-order reduction, where the sleep sets
	// depend on scheduling). collapseProbe: the traced run also explores
	// with Collapse on, for litmus.collapse_overhead_share.
	pinCounts, collapseProbe bool

	in   exploreInput
	last litmus.Result
}

func (w *exploreWorkload) name() string   { return w.workloadName }
func (w *exploreWorkload) setupReps() int { return exploreSetupReps }

// options completes the workload's engine options the way every rep
// passes them.
func (in *exploreInput) options() litmus.Options {
	o := in.opts
	o.Properties = []litmus.Property{litmus.MutualExclusion}
	o.Workers = workers
	o.MaxStates = 8_000_000
	return o
}

func (w *exploreWorkload) setup(e *env) error {
	warm := w.make(2, e.scale)
	if r := litmus.Explore(warm.build, warm.options()); r.Truncated {
		return fmt.Errorf("warm-up exploration of %s truncated", warm.program)
	}
	w.in = w.make(e.scale.procs, e.scale)
	if w.in.sym != nil {
		if err := w.in.sym.Validate(w.in.progs, w.in.cfg.MemWords); err != nil {
			return fmt.Errorf("%s: %w", w.in.program, err)
		}
	}
	return nil
}

func (w *exploreWorkload) prepare(e *env) error { return nil }

// outcomeLines renders the outcomes for hashing: with their
// multiplicities where those are pinned, as a bare set otherwise.
func (w *exploreWorkload) outcomeLines(r *litmus.Result) []string {
	var lines []string
	for _, o := range r.SortedOutcomes() {
		if w.pinCounts {
			lines = append(lines, fmt.Sprintf("%s x%d", o, r.Outcomes[o]))
		} else {
			lines = append(lines, string(o))
		}
	}
	return lines
}

func (w *exploreWorkload) pinOf(r *litmus.Result) explorePin {
	pin := explorePin{Program: w.in.program, Violations: r.Violations, Deadlocks: r.Deadlocks,
		Outcomes: hashLines(w.outcomeLines(r))}
	if w.pinCounts {
		pin.States, pin.Transitions = r.States, r.Transitions
	}
	return pin
}

func (w *exploreWorkload) computePin(e *env) (explorePin, error) {
	if err := w.setup(e); err != nil {
		return explorePin{}, err
	}
	r := litmus.Explore(w.in.build, w.in.options())
	if r.Truncated {
		return explorePin{}, fmt.Errorf("%s truncated at %d states", w.in.program, r.States)
	}
	return w.pinOf(&r), nil
}

func (w *exploreWorkload) rep(e *env, parent int) (repSample, error) {
	s := repSample{attempted: 1}
	opts := w.in.options()
	call := e.tr.begin("litmus.Explore", parent)
	measured(&s, func() { w.last = litmus.Explore(w.in.build, opts) })
	e.tr.end(call, 1)
	s.states, s.transitions = w.last.States, w.last.Transitions
	want, ok := e.pins().Explore[w.workloadName]
	if got := w.pinOf(&w.last); w.last.Truncated || !ok || got != want {
		mismatch("%s: verdict %+v (truncated=%v) does not match the pin %+v", w.workloadName, got, w.last.Truncated, want)
		s.failed = 1
	}
	return s, nil
}

func newExplorePlain() *exploreWorkload {
	return &exploreWorkload{workloadName: "explore-plain", pinCounts: true, collapseProbe: true,
		make: func(n int, sc scale) exploreInput {
			sp := programs.BakeryN(n, programs.DekkerMfence)
			sp.Cfg.StoreBufferDepth = 2
			return exploreInput{program: sp.Name + "-sb2", cfg: sp.Cfg, progs: sp.Progs}
		}}
}

func newExploreQuotient() *exploreWorkload {
	return &exploreWorkload{workloadName: "explore-quotient", pinCounts: true,
		make: func(n int, sc scale) exploreInput {
			sp := programs.PetersonN(n, programs.DekkerMfence)
			sp.Cfg.StoreBufferDepth = 2
			return exploreInput{program: sp.Name + "-sb2-collapse-sym", cfg: sp.Cfg, progs: sp.Progs, sym: sp.Sym,
				opts: litmus.Options{Collapse: true, Symmetry: sp.Sym}}
		}}
}

// newExplorePOR explores the bakery under partial-order reduction with
// the paper's own mechanism in play. At full scale every thread uses
// l-mfence, as ISSUE 11 sized it (3.28 M states, ~10 s a rep). The
// reference scale uses the asymmetric placement the paper argues for:
// l-mfence on the primary thread 0, mfence on the others. It keeps the
// LE/ST links under the ample/sleep-set analysis and closes in about a
// tenth of the time, so a run holds several reps.
func newExplorePOR() *exploreWorkload {
	return &exploreWorkload{workloadName: "explore-por",
		make: func(n int, sc scale) exploreInput {
			lm := programs.BakeryN(n, programs.DekkerLmfence)
			in := exploreInput{program: lm.Name, cfg: lm.Cfg, progs: lm.Progs,
				opts: litmus.Options{Reduction: true}}
			if !sc.porSymmetric {
				mf := programs.BakeryN(n, programs.DekkerMfence)
				in.progs = append([]*tso.Program{lm.Progs[0]}, mf.Progs[1:]...)
				in.program = fmt.Sprintf("bakery%d-lmfence-primary-mfence-rest", n)
			}
			in.cfg.StoreBufferDepth = sc.porDepth
			in.program += fmt.Sprintf("-sb%d-por", sc.porDepth)
			return in
		}}
}
