package litmusgen

import (
	"fmt"
	"reflect"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmuslang"
	"repro/internal/tso"
)

// Divergence is a disagreement between two engine configurations on the
// same program — the bug class this package exists to catch. Any
// Divergence from RunDifferential is a model-checker defect, never a
// property of the program under test.
type Divergence struct {
	// Config names the engine configuration that disagreed with the
	// serial reference ("roundtrip" for a source-level mismatch).
	Config string
	// Detail describes the disagreement.
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("litmusgen: %s diverged from the serial reference: %s", d.Config, d.Detail)
}

// Report summarizes one differential run.
type Report struct {
	// Name is the compiled litmus name.
	Name string
	// States is the serial reference's state count.
	States int
	// Skipped is set when the state budget truncated any engine run;
	// comparisons on a truncated prefix are meaningless, so the run
	// reports no divergence either way.
	Skipped bool
}

// RunDifferential parses, compiles, and explores src under the engine
// configuration matrix — serial reference vs parallel, reduced vs
// unreduced, collapse on vs off — and reports the first divergence:
// outcome-set, deadlock-count, or verdict disagreement, plus a
// disasm/recompile round-trip mismatch. maxStates bounds every
// exploration (<= 0 uses litmus.DefaultMaxStates).
func RunDifferential(src string, maxStates int) (Report, error) {
	c, err := litmuslang.CompileSource(src)
	if err != nil {
		return Report{}, &Divergence{Config: "compile", Detail: err.Error()}
	}
	return runMatrix(c, nil, maxStates)
}

// RunDifferentialSym is RunDifferential for an already-compiled unit
// with a symmetry declaration: the matrix additionally runs
// symmetry-on configurations, whose verdict and deadlock count (but
// not outcome multiplicity — symmetry keeps one representative per
// orbit) must match the reference.
func RunDifferentialSym(c *litmuslang.Compiled, sym *tso.Symmetry, maxStates int) (Report, error) {
	return runMatrix(c, sym, maxStates)
}

func runMatrix(c *litmuslang.Compiled, sym *tso.Symmetry, maxStates int) (Report, error) {
	props := c.Properties()
	// Every leg explores under the model the file's config declares.
	base := litmus.Options{Properties: props, MaxStates: maxStates}

	ref := litmus.ExploreSerial(c.Build, base)
	rep := Report{Name: c.Name, States: ref.States}
	if ref.Truncated {
		rep.Skipped = true
		return rep, nil
	}

	type leg struct {
		name     string
		opts     litmus.Options
		outcomes bool // outcome map must match 1:1 including multiplicity
		exact    bool // state, transition and violation counts must match (unreduced legs)
	}
	legs := []leg{
		{"parallel-2",
			with(base, func(o *litmus.Options) { o.Workers = 2 }), true, true},
		{"parallel-4+collapse",
			with(base, func(o *litmus.Options) { o.Workers = 4; o.Collapse = true }), true, true},
		{"serial+reduction",
			with(base, func(o *litmus.Options) { o.Reduction = true }), true, false},
		{"parallel-4+reduction+collapse",
			with(base, func(o *litmus.Options) {
				o.Workers = 4
				o.Reduction = true
				o.Collapse = true
			}), true, false},
	}
	if sym != nil {
		legs = append(legs,
			leg{"parallel-4+symmetry",
				with(base, func(o *litmus.Options) { o.Workers = 4; o.Symmetry = sym }), false, false},
			leg{"parallel-4+symmetry+collapse",
				with(base, func(o *litmus.Options) {
					o.Workers = 4
					o.Symmetry = sym
					o.Collapse = true
				}), false, false},
		)
	}

	for _, l := range legs {
		got := serialOrParallel(c, l.opts)
		if got.Truncated {
			rep.Skipped = true
			return rep, nil
		}
		if err := compare(l.name, l.outcomes, l.exact, ref, got, len(props) > 0); err != nil {
			return rep, err
		}
	}

	skip, err := protocolLegs(c, base, ref, len(props) > 0)
	if skip || err != nil {
		rep.Skipped = skip
		return rep, err
	}
	skip, err = psoLegs(c, base, ref, len(props) > 0)
	if skip || err != nil {
		rep.Skipped = skip
		return rep, err
	}

	if err := roundTrip(c); err != nil {
		return rep, err
	}
	return rep, nil
}

// protocolLegs re-explores the program under each coherence protocol
// the DSL can declare besides the compiled one. All three protocols
// implement the same coherent-memory contract, so the quiesced outcome
// *set* and the verdict must agree with the reference; state counts
// (and with them outcome multiplicities) legitimately differ, because
// the protocols have different cache-state spaces.
func protocolLegs(c *litmuslang.Compiled, base litmus.Options, ref litmus.Result, hasProp bool) (skipped bool, err error) {
	for _, proto := range []arch.Protocol{arch.MESI, arch.MSI, arch.MOESI} {
		if proto == c.Config.Protocol {
			continue
		}
		cc := *c
		cc.Config.Protocol = proto
		name := fmt.Sprintf("serial+protocol-%s", proto)
		got := litmus.ExploreSerial(cc.Build, base)
		if got.Truncated {
			return true, nil
		}
		if hasProp {
			if refV, gotV := ref.Violations > 0, got.Violations > 0; refV != gotV {
				return false, &Divergence{Config: name, Detail: fmt.Sprintf(
					"verdict mismatch: reference violations=%d, got=%d", ref.Violations, got.Violations)}
			}
		}
		if (ref.Deadlocks > 0) != (got.Deadlocks > 0) {
			return false, &Divergence{Config: name, Detail: fmt.Sprintf(
				"deadlock mismatch: reference %d, got %d", ref.Deadlocks, got.Deadlocks)}
		}
		if err := compareOutcomeSets(name, ref, got); err != nil {
			return false, err
		}
	}
	return false, nil
}

// psoLegs checks the TSO/PSO weakening contract on a TSO-model program:
// every TSO action is a PSO action (a TSO drain is the PSO drain of
// address class 0), so the PSO exploration must reach a superset of the
// TSO states and outcomes, and a TSO violation must stay a violation.
// The PSO engine is then differentially tested against itself — a
// parallel collapsed run must reproduce the serial PSO run exactly.
// Programs that already declare "model pso" get the whole main matrix
// under PSO instead, so there is nothing extra to check here.
func psoLegs(c *litmuslang.Compiled, base litmus.Options, ref litmus.Result, hasProp bool) (skipped bool, err error) {
	if c.Config.Model != arch.TSO {
		return false, nil
	}
	pso := *c
	pso.Config.Model = arch.PSO
	psoRef := litmus.ExploreSerial(pso.Build, base)
	if psoRef.Truncated {
		return true, nil
	}
	if psoRef.States < ref.States {
		return false, &Divergence{Config: "pso-serial", Detail: fmt.Sprintf(
			"PSO reached fewer states than TSO: %d < %d (PSO must weaken TSO)", psoRef.States, ref.States)}
	}
	for o := range ref.Outcomes {
		if _, ok := psoRef.Outcomes[o]; !ok {
			return false, &Divergence{Config: "pso-serial", Detail: fmt.Sprintf(
				"TSO outcome %v unreachable under PSO (PSO must weaken TSO)", o)}
		}
	}
	if psoRef.Deadlocks < ref.Deadlocks {
		return false, &Divergence{Config: "pso-serial", Detail: fmt.Sprintf(
			"PSO reached fewer deadlocks than TSO: %d < %d", psoRef.Deadlocks, ref.Deadlocks)}
	}
	if hasProp && ref.Violations > 0 && psoRef.Violations == 0 {
		return false, &Divergence{Config: "pso-serial", Detail: "TSO violation not reproduced under PSO (PSO must weaken TSO)"}
	}

	got := litmus.Explore(pso.Build, with(base, func(o *litmus.Options) {
		o.Workers = 4
		o.Collapse = true
	}))
	if got.Truncated {
		return true, nil
	}
	if err := compare("pso-parallel-4+collapse", true, true, psoRef, got, hasProp); err != nil {
		return false, err
	}
	return false, nil
}

// compareOutcomeSets checks that two runs reached exactly the same set
// of quiesced outcomes, ignoring multiplicity.
func compareOutcomeSets(name string, ref, got litmus.Result) error {
	for o := range ref.Outcomes {
		if _, ok := got.Outcomes[o]; !ok {
			return &Divergence{Config: name, Detail: fmt.Sprintf("outcome %v lost", o)}
		}
	}
	for o := range got.Outcomes {
		if _, ok := ref.Outcomes[o]; !ok {
			return &Divergence{Config: name, Detail: fmt.Sprintf("outcome %v invented", o)}
		}
	}
	return nil
}

func with(o litmus.Options, f func(*litmus.Options)) litmus.Options {
	f(&o)
	return o
}

func serialOrParallel(c *litmuslang.Compiled, o litmus.Options) litmus.Result {
	if o.Workers == 0 {
		return litmus.ExploreSerial(c.Build, o)
	}
	return litmus.Explore(c.Build, o)
}

// compare checks one engine leg against the serial reference. Every
// leg must agree on verdict and deadlock count. Unreduced legs (exact)
// must also reproduce the state, transition and violation counts: the
// parallel engine runs them with sleep sets alone, which keep every
// state and count every edge, so an unsound footprint in reduce.go
// shows there as a lost state or edge. Every non-symmetry leg
// (reduction preserves all quiesced final states) must reproduce the
// outcome map verbatim. Symmetry keeps one representative per orbit, so
// only a states-do-not-grow check applies there.
func compare(name string, outcomes, exact bool, ref, got litmus.Result, hasProp bool) error {
	if hasProp {
		refV, gotV := ref.Violations > 0, got.Violations > 0
		if refV != gotV {
			return &Divergence{Config: name, Detail: fmt.Sprintf(
				"verdict mismatch: reference violations=%d, got=%d", ref.Violations, got.Violations)}
		}
	}
	if ref.Deadlocks != got.Deadlocks {
		return &Divergence{Config: name, Detail: fmt.Sprintf(
			"deadlock mismatch: reference %d, got %d", ref.Deadlocks, got.Deadlocks)}
	}
	if got.States > ref.States {
		return &Divergence{Config: name, Detail: fmt.Sprintf(
			"visited more states than the reference: %d > %d", got.States, ref.States)}
	}
	if exact && ref.States != got.States {
		return &Divergence{Config: name, Detail: fmt.Sprintf(
			"state-count mismatch: reference %d, got %d", ref.States, got.States)}
	}
	if exact && ref.Transitions != got.Transitions {
		return &Divergence{Config: name, Detail: fmt.Sprintf(
			"transition-count mismatch: reference %d, got %d", ref.Transitions, got.Transitions)}
	}
	if exact && ref.Violations != got.Violations {
		return &Divergence{Config: name, Detail: fmt.Sprintf(
			"violation-count mismatch: reference %d, got %d", ref.Violations, got.Violations)}
	}
	if outcomes && !reflect.DeepEqual(ref.Outcomes, got.Outcomes) {
		return &Divergence{Config: name, Detail: fmt.Sprintf(
			"outcome mismatch:\nreference %v\n      got %v", ref.SortedOutcomes(), got.SortedOutcomes())}
	}
	return nil
}

// roundTrip renders the compiled unit back to source and recompiles it;
// any drift is a disassembler or parser bug.
func roundTrip(c *litmuslang.Compiled) error {
	back, err := litmuslang.CompileSource(c.Render())
	if err != nil {
		return &Divergence{Config: "roundtrip", Detail: fmt.Sprintf("rendered source failed to compile: %v", err)}
	}
	if !reflect.DeepEqual(back.Config, c.Config) {
		return &Divergence{Config: "roundtrip", Detail: fmt.Sprintf("config drift: %+v vs %+v", back.Config, c.Config)}
	}
	if len(back.Programs) != len(c.Programs) {
		return &Divergence{Config: "roundtrip", Detail: "program count drift"}
	}
	for i := range c.Programs {
		if !reflect.DeepEqual(back.Programs[i].Instrs, c.Programs[i].Instrs) {
			return &Divergence{Config: "roundtrip", Detail: fmt.Sprintf(
				"program %d drift:\n got %v\nwant %v", i, back.Programs[i].Instrs, c.Programs[i].Instrs)}
		}
	}
	return nil
}
