package harness

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/mesi"
	"repro/internal/programs"
	"repro/internal/stats"
	"repro/internal/storebuf"
	"repro/internal/tso"
)

// TheoremRow is one model-checked protocol's verdict.
type TheoremRow struct {
	Name       string
	States     int
	Outcomes   int
	Violations int
	Expected   string // "safe" or "violation"
	Pass       bool
	Detail     string
}

// TheoremsResult is the machine-checked counterpart of Section 4.
type TheoremsResult struct {
	Rows []TheoremRow
	// Obs aggregates the exploration engine's counters (visited-set claim
	// tries/wins, states/sec) over every checked protocol.
	Observed
}

// RunTheorems model-checks the protocol suite: the unfenced Dekker must
// violate mutual exclusion (the TSO reordering is real), the mfence and
// l-mfence variants must not (Theorems 4 and 7), and the classic litmus
// tests must show exactly the outcomes TSO permits. workers sizes the
// exploration pool (0 = GOMAXPROCS); cmd/litmus -workers feeds it.
func RunTheorems(workers int) *TheoremsResult {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4

	build := func(p0, p1 *tso.Program) func() *tso.Machine {
		return func() *tso.Machine { return tso.NewMachine(cfg, p0, p1) }
	}

	res := &TheoremsResult{}
	addDekker := func(name string, v programs.DekkerVariant, expectViolation bool) {
		p0, p1 := programs.DekkerPair(v)
		r := litmus.Explore(build(p0, p1), litmus.Options{
			Properties: []litmus.Property{litmus.MutualExclusion},
			Workers:    workers,
		})
		row := TheoremRow{
			Name:       "dekker-" + v.String(),
			States:     r.States,
			Outcomes:   len(r.Outcomes),
			Violations: r.Violations,
		}
		if expectViolation {
			row.Expected = "violation"
			row.Pass = r.Violations > 0
			if row.Pass {
				row.Detail = "TSO reordering found, as the paper predicts"
			}
		} else {
			row.Expected = "safe"
			row.Pass = r.Violations == 0 && r.Deadlocks == 0
			if row.Pass {
				row.Detail = "mutual exclusion holds on every interleaving"
			} else if r.FirstViolation != nil {
				row.Detail = r.FirstViolation.Error()
			}
		}
		_ = name
		res.Obs.Merge(r.Obs)
		res.Rows = append(res.Rows, row)
	}

	addDekker("nofence", programs.DekkerNoFence, true)
	addDekker("mfence", programs.DekkerMfence, false)
	addDekker("lmfence", programs.DekkerLmfence, false)
	addDekker("mirrored", programs.DekkerLmfenceMirrored, false)

	// The other classic algorithms the introduction cites: same duality,
	// same TSO hazard, same cure.
	addClassic := func(family string,
		pair func(programs.DekkerVariant) (*tso.Program, *tso.Program),
		v programs.DekkerVariant, expectViolation bool) {
		p0, p1 := pair(v)
		r := litmus.Explore(build(p0, p1), litmus.Options{
			Properties: []litmus.Property{litmus.MutualExclusion},
			Workers:    workers,
		})
		row := TheoremRow{
			Name:       family + "-" + v.String(),
			States:     r.States,
			Outcomes:   len(r.Outcomes),
			Violations: r.Violations,
		}
		if expectViolation {
			row.Expected = "violation"
			row.Pass = r.Violations > 0
		} else {
			row.Expected = "safe"
			row.Pass = r.Violations == 0 && r.Deadlocks == 0
		}
		if row.Pass {
			row.Detail = "as specified"
		}
		res.Obs.Merge(r.Obs)
		res.Rows = append(res.Rows, row)
	}
	addClassic("peterson", programs.PetersonPair, programs.DekkerNoFence, true)
	addClassic("peterson", programs.PetersonPair, programs.DekkerMfence, false)
	addClassic("peterson", programs.PetersonPair, programs.DekkerLmfenceMirrored, false)
	addClassic("bakery", programs.BakeryPair, programs.DekkerNoFence, true)
	addClassic("bakery", programs.BakeryPair, programs.DekkerMfence, false)
	addClassic("bakery", programs.BakeryPair, programs.DekkerLmfenceMirrored, false)

	addSB := func(name, entry string) {
		ct := litmus.CatalogEntry(entry)
		progs := ct.Build()
		r := litmus.Explore(build(progs[0], progs[1]), litmus.Options{Workers: workers})
		row := TheoremRow{Name: name, States: r.States, Outcomes: len(r.Outcomes)}
		reached := r.CountOutcomes(ct.Relaxed) > 0
		if ct.Allowed(arch.TSO) {
			row.Expected = "r0==0 both reachable"
			row.Pass = reached
		} else {
			row.Expected = "r0==0 both forbidden"
			row.Pass = !reached
		}
		if row.Pass {
			row.Detail = "as specified"
		}
		res.Obs.Merge(r.Obs)
		res.Rows = append(res.Rows, row)
	}
	addSB("sb-unfenced", "SB")
	addSB("sb-mfence", "SB+mfence")
	addSB("sb-lmfence", "SB+lmfence")

	return res
}

// AllPass reports whether every checked property matched expectation.
func (r *TheoremsResult) AllPass() bool {
	return allPass(r.Rows, func(row TheoremRow) bool { return row.Pass })
}

// Table renders the verification report.
func (r *TheoremsResult) Table() *stats.Table {
	t := stats.NewTable(
		"Section 4, machine-checked: exhaustive TSO interleavings per protocol",
		"protocol", "states", "outcomes", "violations", "expected", "verdict")
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL: " + row.Detail
		}
		t.AddRow(row.Name, row.States, row.Outcomes, row.Violations, row.Expected, verdict)
	}
	t.AddNote("Theorem 4: LE/ST implements the l-mfence specification;")
	t.AddNote("Theorem 7: the asymmetric Dekker protocol with l-mfence is mutually exclusive")
	return t
}

// Fig3bTrace renders the instruction-by-instruction execution of the
// l-mfence translation (Fig. 3(b)), including the coherence events, as
// cmd/lbmfsim prints it.
func Fig3bTrace() string {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	var sb strings.Builder
	m := tso.NewMachine(cfg, programs.LmfenceTrace())
	m.Tracer = &textTracer{sb: &sb}
	r := tso.NewRunner(m)
	if _, err := r.RunProc(0); err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
	}
	return sb.String()
}

type textTracer struct{ sb *strings.Builder }

func (t *textTracer) OnExec(p arch.ProcID, pc int, in tso.Instr) {
	note := ""
	if in.Note != "" {
		note = "   ; " + in.Note
	}
	fmt.Fprintf(t.sb, "%v  %2d: %-24v%s\n", p, pc, in, note)
}

func (t *textTracer) OnDrain(p arch.ProcID, e storebuf.Entry) {
	fmt.Fprintf(t.sb, "%v      drain [0x%x] <- %d (store completes, globally visible)\n",
		p, uint32(e.Addr), int64(e.Val))
}

func (t *textTracer) OnLinkBreak(p arch.ProcID, addr arch.Addr, reason mesi.GuardReason) {
	fmt.Fprintf(t.sb, "%v      link to 0x%x broken (%v): flush store buffer, reply to controller\n",
		p, uint32(addr), reason)
}
