package litmus

import (
	"repro/internal/arch"
	"repro/internal/tso"
)

// Model is the transition system the exploration engines walk: which
// actions a machine state enables, how an action transforms the state,
// and whether the partial-order-reduction layer's independence
// analysis is sound for that transition relation. The machine state
// itself (tso.Machine, its fingerprint, collapse compression, symmetry
// canonicalization, checkpointing) is shared by every model — a memory
// model here is purely a drain policy over the same store buffers.
//
// The engines resolve one Model per exploration from the root machine's
// Config.Model (resolve, plan.go); implementations must be stateless
// values so explorations can share them freely across workers.
type Model interface {
	// Name is the model's canonical lower-case name ("tso", "pso",
	// "sc"). It identifies the model in checkpoint headers, so a
	// snapshot cannot silently resume under a different model.
	Name() string

	// Enabled appends every enabled action of m to dst, in a
	// deterministic order (processors ascending; Exec before drains;
	// drain classes ascending). Callers pass a reused buffer to keep
	// expansion allocation-free.
	Enabled(dst []Action, m *tso.Machine) []Action

	// Apply takes action a on m. a must have come from Enabled on m.
	Apply(m *tso.Machine, a Action)

	// ReductionOK reports whether reduce.go's footprint analysis, ample
	// and sleep sets alike, is sound for this model's enabledness
	// relation. resolve (plan.go) gives a run under a model returning
	// false no reducer, whatever Options.Reduction says.
	ReductionOK() bool
}

// tsoModel is the paper's Total Store Order machine: one FIFO store
// buffer per processor, so the only drain transition completes the
// overall oldest pending store. This is the default model, and its
// Enabled/Apply are byte-for-byte the engine's historical transition
// relation (every Action it emits has Arg == 0, preserving trace and
// checkpoint encodings).
type tsoModel struct{}

func (tsoModel) Name() string { return "tso" }

func (tsoModel) Enabled(dst []Action, m *tso.Machine) []Action {
	for i := range m.Procs {
		p := arch.ProcID(i)
		if m.CanExec(p) {
			dst = append(dst, Action{Proc: p, Kind: Exec})
		}
		if m.CanDrain(p) {
			dst = append(dst, Action{Proc: p, Kind: Drain})
		}
	}
	return dst
}

func (tsoModel) Apply(m *tso.Machine, a Action) {
	switch a.Kind {
	case Exec:
		m.ExecStep(a.Proc)
	case Drain:
		m.DrainStep(a.Proc)
	}
}

func (tsoModel) ReductionOK() bool { return true }

// psoModel is Partial Store Order: per-address store buffers, modeled
// as one drain transition per distinct pending address ("class",
// indexed by first occurrence in FIFO order — Action.Arg). Stores to
// the same address still complete in program order; stores to
// different addresses drain in any order. Class 0 always completes
// the overall oldest entry, so every TSO drain schedule is one of
// PSO's schedules and PSO outcomes are a superset of TSO's.
//
// mfence (and the l-mfence link-break flush) drains the whole buffer
// in FIFO order, which is one valid per-address completion order, so
// the machine's fence semantics carry over unchanged.
type psoModel struct{}

func (psoModel) Name() string { return "pso" }

func (psoModel) Enabled(dst []Action, m *tso.Machine) []Action {
	for i := range m.Procs {
		p := arch.ProcID(i)
		if m.CanExec(p) {
			dst = append(dst, Action{Proc: p, Kind: Exec})
		}
		for k := 0; k < m.DrainClasses(p); k++ {
			dst = append(dst, Action{Proc: p, Kind: Drain, Arg: uint8(k)})
		}
	}
	return dst
}

func (psoModel) Apply(m *tso.Machine, a Action) {
	switch a.Kind {
	case Exec:
		m.ExecStep(a.Proc)
	case Drain:
		m.DrainClassStep(a.Proc, int(a.Arg))
	}
}

// ReductionOK is false for PSO: reduce.go's footprint analysis models
// "the" drain of a processor (its oldest entry) and its enabledness
// assumes the FIFO relation, neither of which holds for per-class
// drains. PSO explorations therefore run unreduced.
func (psoModel) ReductionOK() bool { return false }

// scModel is sequential consistency, the reference model of the
// differential tests: no drain actions are ever enabled; instead every
// Exec atomically drains the whole buffer after the commit, so a store
// is globally visible the moment it commits.
type scModel struct{}

func (scModel) Name() string { return "sc" }

func (scModel) Enabled(dst []Action, m *tso.Machine) []Action {
	for i := range m.Procs {
		p := arch.ProcID(i)
		if m.CanExec(p) {
			dst = append(dst, Action{Proc: p, Kind: Exec})
		}
	}
	return dst
}

func (scModel) Apply(m *tso.Machine, a Action) {
	if a.Kind != Exec {
		return
	}
	m.ExecStep(a.Proc)
	for m.CanDrain(a.Proc) {
		m.DrainStep(a.Proc)
	}
}

func (scModel) ReductionOK() bool { return true }

// replayApply applies one recorded action outside an engine, for trace
// replay and rendering. It dispatches on the action itself rather than
// a Model: Exec is model-independent, and a Drain's Arg pins the exact
// entry it completed (TSO traces carry Arg == 0, and class 0 is the
// FIFO drain), so a trace recorded under any model replays exactly.
func replayApply(m *tso.Machine, a Action) {
	switch a.Kind {
	case Exec:
		m.ExecStep(a.Proc)
	case Drain:
		m.DrainClassStep(a.Proc, int(a.Arg))
	}
}
