package litmus

import (
	"sync/atomic"
	"testing"

	"repro/internal/tso"
)

// Exports for loop_test.go, an external test: it walks generated and
// example programs, and litmusgen and litmuslang both import this
// package.

// CycleSpace is a space of the reduction corpus, or the looped ring with
// its symmetry.
type CycleSpace struct {
	Name  string
	Build func() *tso.Machine
	Sym   *tso.Symmetry
}

// CycleSpaces lists reductionSpaces and loopRing(3).
func CycleSpaces() []CycleSpace {
	var out []CycleSpace
	for _, sp := range reductionSpaces() {
		out = append(out, CycleSpace{Name: sp.name, Build: sp.build})
	}
	ring := loopRing(3)
	return append(out, CycleSpace{Name: ring.Name, Build: ring.Build, Sym: ring.Sym})
}

// MayCycle is the reducer's static loop test for machines rooted at
// root, asked of one enabled action of a state.
func MayCycle(root *tso.Machine) func(m *tso.Machine, a Action) bool {
	rd := newReducer(root, false, false)
	enabled := make([]Action, 1)
	pl := porScratch{tidx: []int{0}}
	return func(m *tso.Machine, a Action) bool {
		enabled[0] = a
		return rd.mayCycle(m, enabled, &pl)
	}
}

// pipelineFromFirstClaim makes every worker key frames one ahead from
// its first claim (run) until the test ends, so spaces far below
// pipelineWins take the held-frame paths.
func pipelineFromFirstClaim(t *testing.T) {
	was := pipelineWins
	pipelineWins = 0
	t.Cleanup(func() { pipelineWins = was })
}

// countFinalizes counts the engine's finalize calls until the test ends.
func countFinalizes(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	finalizeHook = func() { n.Add(1) }
	t.Cleanup(func() { finalizeHook = nil })
	return &n
}
