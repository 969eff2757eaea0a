package litmus_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/litmuslang"
	"repro/internal/tso"
)

// loopWalkCap bounds one oracle walk; a generated program past it is
// skipped and counted.
const loopWalkCap = 200_000

// cycleEdge is one transition of the walked graph: its target state and
// whether the reducer's static loop test flags the action in its source.
type cycleEdge struct {
	to      int32
	flagged bool
}

// stateGraph walks the unreduced TSO state graph of build on the
// machine alone (CanExec/ExecStep, CanDrain/DrainStep), keyed by
// Fingerprint — of the canonical representative when sym is set, which
// makes it the quotient graph. Each edge records mayCycle's answer for
// its action in its source state. ok is false past loopWalkCap states.
func stateGraph(build func() *tso.Machine, sym *tso.Symmetry) (adj [][]cycleEdge, ok bool) {
	root := build()
	mayCycle := litmus.MayCycle(root)
	var canon *tso.Canonicalizer
	if sym != nil {
		canon = tso.NewCanonicalizer(sym, root)
	}
	type frame struct {
		m  *tso.Machine
		id int32
	}
	ids := map[string]int32{}
	var stack []frame
	var buf []byte
	id := func(m *tso.Machine) int32 {
		cm := m
		if canon != nil {
			cm, _ = canon.Canonicalize(m)
		}
		buf = cm.Fingerprint(buf[:0])
		if v, seen := ids[string(buf)]; seen {
			return v
		}
		v := int32(len(adj))
		ids[string(buf)] = v
		adj = append(adj, nil)
		stack = append(stack, frame{m, v})
		return v
	}
	id(root)
	for len(stack) > 0 {
		if len(adj) > loopWalkCap {
			return nil, false
		}
		m, from := stack[len(stack)-1].m, stack[len(stack)-1].id
		stack = stack[:len(stack)-1]
		for p := range m.Procs {
			pid := arch.ProcID(p)
			for _, a := range []litmus.Action{{Proc: pid, Kind: litmus.Exec}, {Proc: pid, Kind: litmus.Drain}} {
				if a.Kind == litmus.Exec && !m.CanExec(pid) || a.Kind == litmus.Drain && !m.CanDrain(pid) {
					continue
				}
				flagged := mayCycle(m, a)
				child := m.Clone()
				if a.Kind == litmus.Exec {
					child.ExecStep(pid)
				} else {
					child.DrainStep(pid)
				}
				adj[from] = append(adj[from], cycleEdge{id(child), flagged})
			}
		}
	}
	return adj, true
}

// sccOf numbers the strongly connected components of adj (Tarjan's
// algorithm, iterative).
func sccOf(adj [][]cycleEdge) []int32 {
	n := len(adj)
	index := make([]int32, n) // 0: not yet visited
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	type frame struct {
		v int32
		i int
	}
	var calls []frame
	next, ncomp := int32(1), int32(0)
	visit := func(v int32) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		calls = append(calls, frame{v: v})
	}
	for r := range adj {
		if index[r] != 0 {
			continue
		}
		visit(int32(r))
		for len(calls) > 0 {
			f := &calls[len(calls)-1]
			v := f.v
			if f.i < len(adj[v]) {
				w := adj[v][f.i].to
				f.i++
				if index[w] == 0 {
					visit(w)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				if u := calls[len(calls)-1].v; low[v] < low[u] {
					low[u] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp
}

// cycleEdges counts the edges of adj that lie on a cycle (both ends in
// one component) and the ones among them mayCycle fails to flag.
func cycleEdges(adj [][]cycleEdge) (onCycle, unflagged int) {
	comp := sccOf(adj)
	for v, es := range adj {
		for _, e := range es {
			if comp[v] == comp[e.to] {
				onCycle++
				if !e.flagged {
					unflagged++
				}
			}
		}
	}
	return onCycle, unflagged
}

// TestLoopIntervalsCoverStateCycles holds the reducer's static loop test
// to the premise that lets the cycle proviso skip its probe: every
// transition on a cycle of the unreduced state graph is one mayCycle
// flags. The graph is walked here on the machine alone and split by
// Tarjan's algorithm, so the oracle shares neither the reducer's
// footprints nor an engine. It covers the reduction corpus (whose cyclic
// spaces must show cycles, or the check is vacuous), the looped ring's
// quotient graph, examples/*.litmus and generated programs, whose
// bounded counter loops mix looped and loop-free code.
func TestLoopIntervalsCoverStateCycles(t *testing.T) {
	check := func(name string, build func() *tso.Machine, sym *tso.Symmetry) (onCycle int, ok bool) {
		t.Helper()
		adj, ok := stateGraph(build, sym)
		if !ok {
			return 0, false
		}
		onCycle, unflagged := cycleEdges(adj)
		if unflagged > 0 {
			t.Errorf("%s: %d of %d transitions on state cycles are not flagged by mayCycle", name, unflagged, onCycle)
		}
		return onCycle, true
	}

	for _, sp := range litmus.CycleSpaces() {
		onCycle, ok := check(sp.Name, sp.Build, sp.Sym)
		if !ok {
			t.Fatalf("%s: over %d states", sp.Name, loopWalkCap)
		}
		cyclic := sp.Sym != nil || strings.HasPrefix(sp.Name, "cycle/")
		if cyclic != (onCycle > 0) {
			t.Errorf("%s: %d transitions on state cycles; cyclic space: %v", sp.Name, onCycle, cyclic)
		}
	}

	files, err := filepath.Glob("../../examples/*.litmus")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := litmuslang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, ok := check(f, c.Build, nil); !ok {
			t.Errorf("%s: over %d states", f, loopWalkCap)
		}
	}

	seeds, skipped := 200, 0
	if testing.Short() {
		seeds = 40
	}
	p := litmusgen.DefaultParams()
	for seed := int64(0); seed < int64(seeds); seed++ {
		c, err := litmuslang.CompileSource(litmusgen.Generate(seed, p))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.Config.Model != arch.TSO {
			continue // the reducer runs on TSO and SC only
		}
		if _, ok := check(c.Name, c.Build, nil); !ok {
			skipped++
		}
	}
	if skipped*10 > seeds {
		t.Errorf("%d of %d generated programs over %d states", skipped, seeds, loopWalkCap)
	}
}
