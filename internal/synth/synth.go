// Package synth is a counterexample-guided fence-synthesis engine for
// the simulated TSO machine. Given a fence-free program per processor
// and a safety property (mutual exclusion, or a forbidden final
// outcome), it computes the set of *minimal* fence placements that make
// the property hold on every interleaving, and the cycle-cost-optimal
// placement among them — machine-deriving placements like the paper's
// asymmetric Dekker protocol (l-mfence on the hot primary, a full
// mfence on the rare secondary) instead of asserting them.
//
// The search space is the lattice of assignments of a fence kind
// {mfence, l-mfence} to candidate program points. On TSO the only
// observable relaxation is a store's visibility being delayed past a
// younger load of the same processor, so every useful program point is
// store-attached (a point "before a load" that can repair anything is
// also "after a store" in the same window), and the paper's l-mfence is
// definitionally attached to its guarded store; candidate points are
// therefore the store instructions of each thread, and a placement
// maps each chosen store to either an inserted mfence or an in-place
// l-mfence conversion (tso.Splice).
//
// The engine runs a CEGAR loop in the style of property-driven fence
// insertion from model-checker counterexamples (Joshi & Kroening; cf.
// Alglave et al., "Don't sit on the fence"):
//
//  1. propose the minimal placements consistent with all known
//     counterexample constraints (minimal hitting sets under the
//     fence-strength order l-mfence < mfence);
//  2. verify each proposal exhaustively with litmus.Explore on the
//     parallel work-stealing engine — proposals of one frontier verify
//     concurrently, each with Options.StopOnViolation so UNSAT
//     candidates fail fast;
//  3. from each violating trace, extract the delayed-store/later-load
//     reorderings it exhibits and record the constraint "any repairing
//     placement must fence at least one of these windows at least this
//     strongly", pruning every placement that cannot repair the trace;
//  4. repeat until every frontier proposal verifies safe.
//
// Soundness of the pruning rests on the standard fence-insertion
// assumption that fences only restrict behaviour (adding or
// strengthening a fence never introduces a violation); because that
// assumption — not the model checker — justifies *minimality*, the
// engine re-verifies it per result: every one-step weakening of each
// reported minimal placement is model-checked UNSAT.
package synth

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/tso"
)

// FenceKind is the kind of fence a placement assigns to a program point.
// Kinds are ordered by strength: an mfence unconditionally serializes,
// an l-mfence serializes only when the guarded location is touched.
type FenceKind uint8

const (
	// KindNone marks an unfenced point (the lattice bottom).
	KindNone FenceKind = iota
	// KindLmfence converts the point's store into the Fig. 3(b) l-mfence
	// sequence guarding the store's own location.
	KindLmfence
	// KindMfence inserts a full memory fence after the point's store.
	KindMfence
)

func (k FenceKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindLmfence:
		return "l-mfence"
	case KindMfence:
		return "mfence"
	default:
		return fmt.Sprintf("FenceKind(%d)", uint8(k))
	}
}

// Site is one candidate program point: a store instruction of one
// thread's base program.
type Site struct {
	Thread int
	Instr  int // base-program instruction index of the store

	// Addr is the store's static target address; AddrKnown is false for
	// register-indexed stores, which have no static guarded location and
	// therefore admit only an mfence.
	Addr      arch.Addr
	AddrKnown bool

	// LmfenceOK reports whether the site admits an l-mfence conversion.
	LmfenceOK bool
}

func (s Site) String() string {
	if s.AddrKnown {
		return fmt.Sprintf("P%d@%d[0x%x]", s.Thread, s.Instr, uint32(s.Addr))
	}
	return fmt.Sprintf("P%d@%d", s.Thread, s.Instr)
}

// Sites enumerates the candidate program points of a set of fence-free
// base programs, in (thread, instruction) order.
func Sites(progs []*tso.Program) []Site {
	var out []Site
	for t, p := range progs {
		for i, in := range p.Instrs {
			if !in.Op.IsStore() {
				continue
			}
			s := Site{Thread: t, Instr: i, LmfenceOK: tso.CanLmfence(p, i)}
			switch in.Op {
			case tso.OpStore, tso.OpStoreI:
				s.Addr = in.Addr
				s.AddrKnown = true
			}
			out = append(out, s)
		}
	}
	return out
}

// Atom is one fence of a placement: a kind assigned to a site.
type Atom struct {
	Thread int
	Instr  int
	Kind   FenceKind

	// Addr/AddrKnown mirror the site, so an atom renders and prices
	// itself without a site lookup.
	Addr      arch.Addr
	AddrKnown bool
}

func (a Atom) String() string {
	if a.Kind == KindLmfence && a.AddrKnown {
		return fmt.Sprintf("P%d:%s@%d[0x%x]", a.Thread, a.Kind, a.Instr, uint32(a.Addr))
	}
	return fmt.Sprintf("P%d:%s@%d", a.Thread, a.Kind, a.Instr)
}

// siteKey identifies a program point across atoms.
type siteKey struct{ thread, instr int }

// Placement is a set of fences, at most one per site, kept sorted by
// (thread, instr).
type Placement []Atom

func (p Placement) Len() int { return len(p) }

func (p Placement) String() string {
	if len(p) == 0 {
		return "(no fences)"
	}
	parts := make([]string, len(p))
	for i, a := range p {
		parts[i] = a.String()
	}
	return strings.Join(parts, " + ")
}

// key is the canonical identity of a placement, used for memoisation:
// thread.instr.kind per atom, in decimal, joined by "|".
func (p Placement) key() string {
	var b [64]byte
	return string(p.appendKey(b[:0]))
}

// appendKey appends p's key to dst.
func (p Placement) appendKey(dst []byte) []byte {
	for i, a := range p {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = strconv.AppendInt(dst, int64(a.Thread), 10)
		dst = append(dst, '.')
		dst = strconv.AppendInt(dst, int64(a.Instr), 10)
		dst = append(dst, '.')
		dst = strconv.AppendUint(dst, uint64(a.Kind), 10)
	}
	return dst
}

// at returns the kind placed at a site (KindNone if unfenced).
func (p Placement) at(k siteKey) FenceKind {
	for _, a := range p {
		if a.Thread == k.thread && a.Instr == k.instr {
			return a.Kind
		}
	}
	return KindNone
}

// with returns a sorted copy of p with the given atom added or, when the
// site is already fenced, its kind replaced.
func (p Placement) with(a Atom) Placement {
	out := make(Placement, 0, len(p)+1)
	replaced := false
	for _, b := range p {
		if b.Thread == a.Thread && b.Instr == a.Instr {
			out = append(out, a)
			replaced = true
			continue
		}
		out = append(out, b)
	}
	if !replaced {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b Atom) int {
		if a.Thread != b.Thread {
			return cmp.Compare(a.Thread, b.Thread)
		}
		return cmp.Compare(a.Instr, b.Instr)
	})
	return out
}

// without returns a copy of p with the atom at index i removed.
// Minimality is irredundancy — no atom can be *removed* (a placement
// whose every fence is load-bearing). Swapping an mfence for an
// l-mfence is not a weakening but an alternative: the kinds trade
// executing-thread cost against remote-touch cost, so the frontier
// enumerates both and the cost objective arbitrates between them.
func (p Placement) without(i int) Placement {
	out := make(Placement, 0, len(p)-1)
	out = append(out, p[:i]...)
	return append(out, p[i+1:]...)
}

// subsetOf reports whether every atom of p appears in q exactly (same
// site, same kind).
func (p Placement) subsetOf(q Placement) bool {
	for _, a := range p {
		if q.at(siteKey{a.Thread, a.Instr}) != a.Kind {
			return false
		}
	}
	return true
}

// hits reports whether p satisfies a counterexample constraint: some
// atom of p sits at the site of a constraint element with at least the
// element's strength.
func (p Placement) hits(c constraint) bool { return p.hitsWithout(c, -1) }

// hitsWithout is hits for p less its atom at index skip (-1 keeps all).
func (p Placement) hitsWithout(c constraint, skip int) bool {
	for _, need := range c {
		kind := KindNone
		for j, a := range p {
			if j != skip && a.Thread == need.Thread && a.Instr == need.Instr {
				kind = a.Kind
				break
			}
		}
		if kind >= need.Kind {
			return true
		}
	}
	return false
}

// edits lowers one thread's share of the placement to splice edits.
func (p Placement) edits(thread int, scratch tso.Reg) []tso.FenceEdit {
	var out []tso.FenceEdit
	for _, a := range p {
		if a.Thread != thread {
			continue
		}
		out = append(out, tso.FenceEdit{
			Instr:   a.Instr,
			Lmfence: a.Kind == KindLmfence,
			Scratch: scratch,
		})
	}
	return out
}

// Apply splices the placement into each thread's base program, using
// scratch as the LE destination register for l-mfence atoms (0 means
// DefaultScratchReg). Repaired programs are returned in thread order;
// the bases are not mutated. This is how a caller turns a synthesis
// result back into runnable (or renderable) programs.
func (p Placement) Apply(progs []*tso.Program, scratch tso.Reg) []*tso.Program {
	if scratch == 0 {
		scratch = DefaultScratchReg
	}
	out := make([]*tso.Program, len(progs))
	for t, prog := range progs {
		out[t] = tso.Splice(prog, p.edits(t, scratch)).Prog
	}
	return out
}

// constraint is the repair set extracted from one counterexample: any
// placement eliminating that counterexample must include at least one of
// these atoms (or a stronger fence at the same site).
type constraint []Atom

// Problem is one synthesis instance.
type Problem struct {
	// Name labels reports.
	Name string

	// Programs are the fence-free per-processor programs.
	Programs []*tso.Program

	// Config describes the machine to verify on; Config.Procs must cover
	// len(Programs).
	Config arch.Config

	// Property is the invariant checked on every reachable state of
	// every candidate (e.g. litmus.MutualExclusion, or a forbidden final
	// outcome via ForbiddenQuiesced).
	Property litmus.Property

	// PropertyDoc is a one-line description of the property for reports.
	PropertyDoc string
}

// ForbiddenQuiesced adapts a forbidden-final-state predicate into a
// litmus.Property: the property fails exactly on quiesced states matching
// pred. desc names the outcome in the violation error.
func ForbiddenQuiesced(desc string, pred func(m *tso.Machine) bool) litmus.Property {
	return func(m *tso.Machine) error {
		if m.Quiesced() && pred(m) {
			return fmt.Errorf("forbidden outcome reached: %s", desc)
		}
		return nil
	}
}

// Options configures a synthesis run.
type Options struct {
	// AllowMfence / AllowLmfence select the fence kinds the synthesizer
	// may place; both false means both allowed (the zero value is the
	// full lattice, the CLI's -kind both).
	AllowMfence  bool
	AllowLmfence bool

	// Workers is the exploration worker-pool size for each verification
	// (litmus.Options.Workers); 0 means GOMAXPROCS. Every candidate of a
	// frontier verifies at once, each with this many workers, so a
	// caller running several syntheses side by side divides the cores
	// here (RunCorpus does): an exploration's idle workers do not sleep,
	// they loop on runtime.Gosched and take turns on the cores the
	// busy explorations need.
	Workers int

	// MaxStates is the per-candidate exploration budget; 0 means the
	// litmus default. A truncated verification makes the run fail with
	// ErrBudget rather than silently trusting a partial proof.
	MaxStates int

	// MaxFences caps the placement size; 0 means one fence per site.
	MaxFences int

	// PrimaryWeight is the assumed execution-frequency ratio between
	// thread 0 (the paper's primary: the hot, frequently-synchronizing
	// side) and every other thread, used by the cost objective. 0 means
	// DefaultPrimaryWeight. Weights overrides it entirely when non-nil.
	PrimaryWeight float64

	// Weights, when non-nil, gives an explicit execution-frequency
	// weight per thread.
	Weights []float64

	// Cost overrides the cycle-cost model (nil = Problem.Config.Cost).
	Cost *arch.CostModel

	// Scratch is the LE destination register for spliced l-mfences
	// (default register 7, the protocols' scratch register).
	Scratch tso.Reg

	// SkipMinimalityCheck disables the final weakening verification
	// pass (used by tests exercising the CEGAR core alone).
	SkipMinimalityCheck bool

	// Deprecated: Prefilter is ignored. The static critical-cycle
	// prefilter it enabled was deleted: on the generated corpora it cost
	// more exact checks and states than it saved.
	Prefilter bool

	// Deprecated: ReorderBound is ignored. The reorder-bounded screen it
	// enabled was deleted: a bounded run cannot reduce, so a screen that
	// refuted a candidate cost more states than the exact check it
	// replaced.
	ReorderBound int
}

// DefaultPrimaryWeight is the default primary:secondary frequency ratio.
// The paper's target workloads are asymmetric — the primary executes the
// protocol continually while secondaries intervene rarely (the work-
// stealing victim vs. thief, the biased-lock owner vs. revoker) — and
// 100:1 is well inside the regime where its Section 5 placements win.
const DefaultPrimaryWeight = 100

// DefaultScratchReg receives LE-loaded values in spliced programs; it
// matches programs.RegScratch.
const DefaultScratchReg = tso.Reg(7)

func (o Options) allowMfence() bool  { return o.AllowMfence || !o.AllowLmfence }
func (o Options) allowLmfence() bool { return o.AllowLmfence || !o.AllowMfence }

func (o Options) scratch() tso.Reg {
	if o.Scratch == 0 {
		return DefaultScratchReg
	}
	return o.Scratch
}

func (o Options) weights(threads int) []float64 {
	if o.Weights != nil {
		w := make([]float64, threads)
		for i := range w {
			w[i] = 1
			if i < len(o.Weights) && o.Weights[i] > 0 {
				w[i] = o.Weights[i]
			}
		}
		return w
	}
	pw := o.PrimaryWeight
	if pw <= 0 {
		pw = DefaultPrimaryWeight
	}
	w := make([]float64, threads)
	for i := range w {
		w[i] = 1
	}
	if threads > 0 {
		w[0] = pw
	}
	return w
}

// Candidate is one verified placement.
type Candidate struct {
	Placement Placement
	// Cost is the placement's weighted cycle cost (see cost.go).
	Cost float64
	// States is the number of states the verification explored.
	States int
}

// Result summarizes a synthesis run.
type Result struct {
	Problem string
	// Sites are the candidate program points considered.
	Sites []Site
	// Minimal holds every minimal repairing placement, sorted by cost
	// (ties: fewer fences, then placement key).
	Minimal []Candidate
	// Optimal points at the cheapest entry of Minimal (nil when
	// Unrepairable).
	Optimal *Candidate
	// Unrepairable is set when a counterexample admits no repair under
	// the allowed fence kinds (e.g. the property already fails without
	// any TSO reordering); Counterexample then holds its trace rendered
	// by litmus.FormatTrace.
	Unrepairable   bool
	Counterexample string

	// AssumptionViolated is set when the final minimality pass finds a
	// one-atom weakening of a reported placement that verifies safe —
	// i.e. the monotonicity assumption behind counterexample pruning
	// failed for this problem. Results are then not trustworthy as
	// *minimal* (each reported placement is still verified *safe*).
	AssumptionViolated bool

	// CandidatesChecked counts verification queries (including the
	// minimality pass), each one exact, reduced exploration;
	// Counterexamples counts UNSAT verdicts among them; StatesExplored
	// sums their explored states; Rounds counts CEGAR frontier
	// iterations.
	CandidatesChecked int
	Counterexamples   int
	StatesExplored    int
	Rounds            int
	Elapsed           time.Duration

	// FrontierNodes counts the partial placements the CEGAR rounds'
	// frontier enumerations expanded, FrontierTime the wall time they
	// took (the minimality pass enumerates no frontier).
	FrontierNodes int
	FrontierTime  time.Duration

	// Obs renders the synthesis counters (plus states/sec across all
	// verification queries) as an obs snapshot for the bench pipeline.
	Obs obs.Snapshot
}

// FillObs populates Obs from the scalar counters; Synthesize calls it on
// every return path that hands back a Result.
func (r *Result) FillObs() {
	r.Obs = obs.Snapshot{}
	r.Obs.PutCounter("candidates_checked", uint64(r.CandidatesChecked))
	r.Obs.PutCounter("counterexamples", uint64(r.Counterexamples))
	r.Obs.PutCounter("cegar_rounds", uint64(r.Rounds))
	r.Obs.PutCounter("states_explored", uint64(r.StatesExplored))
	r.Obs.PutCounter("frontier_nodes", uint64(r.FrontierNodes))
	r.Obs.PutCounter("frontier_ns", uint64(r.FrontierTime))
	if r.Elapsed > 0 {
		r.Obs.PutGauge("states_per_sec", float64(r.StatesExplored)/r.Elapsed.Seconds())
	}
}

// ErrBudget reports a verification that hit Options.MaxStates; the
// synthesis result would not be trustworthy on a truncated proof.
var ErrBudget = fmt.Errorf("synth: verification truncated by MaxStates budget")
