package synth

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/programs"
	"repro/internal/tso"
)

// This file registers the canonical synthesis problems: the fence-free
// protocol and litmus programs from internal/programs paired with the
// property their fences exist to protect. Each is a known-answer
// instance — the paper (and PR 1's model checking of it) tells us what
// the synthesizer must rediscover:
//
//	dekker    → one fence per thread at the flag publish; the
//	            cost-optimal split is the paper's Fig. 3(a) asymmetry
//	            (l-mfence on the primary, mfence on the secondary)
//	sb        → one fence per thread between the store and the load
//	mp        → zero fences (TSO already forbids the outcome)
//	peterson  → one fence per thread at the turn hand-over (guarding
//	            the flag alone is the classic broken placement)
//	bakery    → two serialization points per thread (doorway entry and
//	            ticket publish)

// ProblemConfig is the machine configuration the registry problems
// verify on: two processors and a memory just big enough for the
// protocol locations, keeping candidate state spaces small.
func ProblemConfig() arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	return cfg
}

// Problems returns the registry in deterministic order.
func Problems() []Problem {
	sb := litmus.CatalogEntry("SB").Build()
	mp := litmus.CatalogEntry("MP").Build()
	dk0, dk1 := programs.DekkerPair(programs.DekkerNoFence)
	pt0, pt1 := programs.PetersonPair(programs.DekkerNoFence)
	bk0, bk1 := programs.BakeryPair(programs.DekkerNoFence)
	cfg := ProblemConfig()

	ps := []Problem{
		{
			Name:        "dekker",
			Programs:    []*tso.Program{dk0, dk1},
			Config:      cfg,
			Property:    litmus.MutualExclusion,
			PropertyDoc: "no two processors inside their critical sections",
		},
		{
			Name:        "peterson",
			Programs:    []*tso.Program{pt0, pt1},
			Config:      cfg,
			Property:    litmus.MutualExclusion,
			PropertyDoc: "no two processors inside their critical sections",
		},
		{
			Name:        "bakery",
			Programs:    []*tso.Program{bk0, bk1},
			Config:      cfg,
			Property:    litmus.MutualExclusion,
			PropertyDoc: "no two processors inside their critical sections",
		},
		{
			Name:     "sb",
			Programs: sb,
			Config:   cfg,
			Property: ForbiddenQuiesced("P0.r0==0 && P1.r0==0", func(m *tso.Machine) bool {
				return m.Procs[0].Regs[programs.RegObs] == 0 &&
					m.Procs[1].Regs[programs.RegObs] == 0
			}),
			PropertyDoc: "store-buffering outcome r0==0 on both threads never reached",
		},
		{
			Name:     "mp",
			Programs: mp,
			Config:   cfg,
			Property: ForbiddenQuiesced("P1.r1==1 && P1.r2==0", func(m *tso.Machine) bool {
				return m.Procs[1].Regs[1] == 1 && m.Procs[1].Regs[2] == 0
			}),
			PropertyDoc: "message-passing outcome flag-without-data never reached",
		},
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// LookupProblem finds a registry problem by name.
func LookupProblem(name string) (Problem, error) {
	for _, p := range Problems() {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0, 5)
	for _, p := range Problems() {
		names = append(names, p.Name)
	}
	return Problem{}, fmt.Errorf("synth: unknown problem %q (have %v)", name, names)
}
