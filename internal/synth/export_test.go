package synth

import (
	"fmt"
	"reflect"
	"slices"
)

// FrontierCase is one constraint set Synthesize enumerated a frontier
// for.
type FrontierCase struct {
	cons      []constraint
	maxFences int
}

// CaptureFrontiers runs f and returns, in call order, every constraint
// set the Synthesize calls f makes enumerate a frontier for. f must not
// run two Synthesize calls at once.
func CaptureFrontiers(f func()) []FrontierCase {
	var got []FrontierCase
	frontierHook = func(cons []constraint, maxFences int) {
		got = append(got, FrontierCase{slices.Clone(cons), maxFences})
	}
	defer func() { frontierHook = nil }()
	f()
	return got
}

// NewFrontierCase is the constraint set cons under maxFences, for a
// fixture.
func NewFrontierCase(cons [][]Atom, maxFences int) FrontierCase {
	c := FrontierCase{maxFences: maxFences}
	for _, con := range cons {
		c.cons = append(c.cons, constraint(con))
	}
	return c
}

// Compare holds minimalHittingSets to minimalHittingSetsByDefinition on
// the case. It returns the partial placements minimalHittingSets
// expanded, the definition's expansions, and how many of those were
// distinct.
func (c FrontierCase) Compare() (nodes, calls, distinct int, err error) {
	got, nodes := minimalHittingSets(c.cons, c.maxFences)
	want, calls, distinct := minimalHittingSetsByDefinition(c.cons, c.maxFences)
	if !reflect.DeepEqual(got, want) {
		err = fmt.Errorf("constraints %v, maxFences %d: got %v, want %v", c.cons, c.maxFences, got, want)
	}
	return nodes, calls, distinct, err
}
