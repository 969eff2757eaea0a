package litmus

import (
	"runtime"

	"repro/internal/arch"
	"repro/internal/tso"
)

// plan is what one exploration runs, as resolve decides it. Both engines
// take these decisions from it instead of re-deriving them from the
// Options, so each interaction between options is written once, in
// resolve.
type plan struct {
	model Model
	// red is the reduction's static footprint analysis: ample and sleep
	// sets under Options.Reduction, sleep sets alone (red.sleepOnly) on a
	// run that must keep every state, nil where neither is sound.
	red *reducer
	// sym is the validated symmetry declaration; nil without one.
	sym       *tso.Symmetry
	maxStates int64
	nworkers  int
	// traces records action traces, which violation reports and
	// checkpoint frontiers are made of.
	traces bool
	// keyWidth is the visited set's exact key width; 0 selects hashed
	// keys.
	keyWidth int
	// drainsFirst lists every enabled Drain before every Exec wherever
	// the parallel engine expands a state (refutation-first order).
	drainsFirst bool
}

// resolve decides the plan of an exploration of root under opts, resumed
// from ck when it is non-nil, for the parallel engine or, when serial is
// set, for ExploreSerial (which reads only the model, the reducer, the
// symmetry and the state cap):
//
//   - The model is root.Cfg.Model's: the machine names its transition
//     relation, and no option overrides it.
//   - The reducer exists when the model's ReductionOK holds (PSO's
//     per-class drains are not what the footprints model) and root has
//     at most maxReductionProcs processors (the action masks' width).
//     With Reduction it chooses ample sets and keeps sleep sets, except
//     under a Symmetry, where both engines force every sleep mask empty
//     (the ample sets' delegation does not survive orbit merging; see
//     ExploreSerial). Without Reduction it keeps sleep sets alone, with
//     or without a Symmetry, which drop no state or orbit and leave
//     every count but the executed edges as the unreduced search's
//     (reduce.go, "Sleep sets alone"). This is not an option: a run that
//     explores everything has no reason to execute the edges a
//     commuting sibling covers. It is the parallel engine's alone: a
//     serial plan without Reduction has no reducer, so ExploreSerial,
//     plain or symmetric, stays the unreduced reference.
//   - The state cap is MaxStates or DefaultMaxStates, the worker count
//     Workers or GOMAXPROCS.
//   - Traces are recorded when there is a property to report or a
//     snapshot whose frontier is made of them.
//   - A StopOnViolation run expands drains before executes
//     (refutation-first order; Options.StopOnViolation says why). A run
//     that explores everything keeps the model's order.
//   - The key width is Collapse's alone on a fresh run and the file's on
//     a resumed one: a hashed file resumes hashed and a collapsed file
//     collapsed, whatever Collapse says. A MemBudget spills either.
//
// It is also the one place that refuses contradictions, by panic like
// any other misuse a wrong answer would follow from: a Symmetry the
// programs do not satisfy (it would merge inequivalent states), and
// VerifyVisited with Collapse (no hash pair to audit), MemBudget (the
// audit map holds every fingerprint in memory) or a checkpoint or resume
// (the audit map is not part of a snapshot).
func resolve(root *tso.Machine, opts Options, ck *checkpoint, serial bool) plan {
	if opts.VerifyVisited {
		switch {
		case opts.Collapse:
			panic("litmus: Options.VerifyVisited audits hash pairs, and Collapse keys the visited set on exact tuples: there is nothing to audit")
		case opts.MemBudget > 0:
			panic("litmus: Options.VerifyVisited keeps every full fingerprint in memory, which no MemBudget can spill")
		case opts.Checkpoint.enabled() || ck != nil:
			panic("litmus: Options.VerifyVisited cannot be combined with Options.Checkpoint or Resume: the full-fingerprint audit map is not part of a snapshot")
		}
	}
	p := plan{
		sym:         checkedSymmetry(root, opts.Symmetry),
		maxStates:   int64(opts.MaxStates),
		nworkers:    opts.Workers,
		traces:      len(opts.Properties) > 0 || opts.Checkpoint.enabled() || ck != nil,
		drainsFirst: opts.StopOnViolation,
	}
	switch root.Cfg.Model {
	case arch.TSO:
		p.model = tsoModel{}
	case arch.PSO:
		p.model = psoModel{}
	case arch.SC:
		p.model = scModel{}
	}
	if p.maxStates == 0 {
		p.maxStates = DefaultMaxStates
	}
	if p.nworkers <= 0 {
		p.nworkers = runtime.GOMAXPROCS(0)
	}
	if p.model.ReductionOK() && len(root.Procs) <= maxReductionProcs && (opts.Reduction || !serial) {
		p.red = newReducer(root, p.model == scModel{}, !opts.Reduction)
	}
	collapse := opts.Collapse
	if ck != nil {
		collapse = ck.hdr.KeyWidth != hashedKeyWidth
	}
	if collapse {
		p.keyWidth = tso.CollapsedWidth(len(root.Procs))
	}
	return p
}

// checkedSymmetry validates a symmetry declaration against the root
// machine's programs and returns it; nil when none is declared.
func checkedSymmetry(root *tso.Machine, sym *tso.Symmetry) *tso.Symmetry {
	if sym == nil {
		return nil
	}
	progs := make([]*tso.Program, len(root.Procs))
	for i, p := range root.Procs {
		progs[i] = p.Prog
	}
	if err := sym.Validate(progs, root.Cfg.MemWords); err != nil {
		panic(err)
	}
	return sym
}
