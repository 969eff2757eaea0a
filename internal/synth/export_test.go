package synth

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/tso"
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

// CheckSplices synthesizes prob and holds every program a candidate was
// verified on to a fresh tso.Splice of that candidate's edits for the
// thread. It returns how many (candidate, thread) programs it checked
// and how many distinct splices the run made for them.
func CheckSplices(prob Problem, opts Options) (programs, splices int, err error) {
	s := newSynthesizer(prob, opts)
	if _, err := s.run(); err != nil {
		return 0, 0, err
	}
	distinct := make(map[*tso.Spliced]bool)
	for key, v := range s.tested {
		p, err := parsePlacementKey(key)
		if err != nil {
			return 0, 0, err
		}
		for t, prog := range prob.Programs {
			want := tso.Splice(prog, p.edits(t, opts.scratch()))
			if !reflect.DeepEqual(v.spliced[t], want) {
				return 0, 0, fmt.Errorf("candidate %v, thread %d: verified on %v, a fresh splice is %v",
					p, t, v.spliced[t].Prog.Instrs, want.Prog.Instrs)
			}
			distinct[v.spliced[t]] = true
			programs++
		}
	}
	return programs, len(distinct), nil
}

// parsePlacementKey inverts Placement.key, up to the atoms' addresses,
// which no splice reads.
func parsePlacementKey(key string) (Placement, error) {
	var p Placement
	if key == "" {
		return p, nil
	}
	for _, atom := range strings.Split(key, "|") {
		f := strings.Split(atom, ".")
		if len(f) != 3 {
			return nil, fmt.Errorf("placement key %q: atom %q", key, atom)
		}
		var v [3]int
		for i := range f {
			n, err := strconv.Atoi(f[i])
			if err != nil {
				return nil, fmt.Errorf("placement key %q: %v", key, err)
			}
			v[i] = n
		}
		p = append(p, Atom{Thread: v[0], Instr: v[1], Kind: FenceKind(v[2])})
	}
	return p, nil
}
