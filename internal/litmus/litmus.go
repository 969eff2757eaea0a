// Package litmus is an exhaustive-interleaving model checker for the
// simulated TSO machine. It machine-checks the correctness results of
// Section 4 of "Location-Based Memory Fences" on bounded programs:
// Theorem 4 (the LE/ST mechanism implements the l-mfence specification)
// via litmus tests over reachable outcomes, and Theorem 7 (the asymmetric
// Dekker protocol with l-mfence is mutually exclusive) via critical-
// section overlap detection on every reachable state.
//
// The operational semantics being explored has two transition kinds per
// processor: committing the next instruction, and draining the oldest
// store-buffer entry ("whenever the system bus is available" — i.e., at
// any time). Exploring all interleavings of those transitions covers
// every reordering TSO permits.
package litmus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/tso"
)

// ActionKind distinguishes the two transition kinds.
type ActionKind uint8

const (
	// Exec commits the processor's next instruction.
	Exec ActionKind = iota
	// Drain completes the processor's oldest buffered store.
	Drain
)

func (k ActionKind) String() string {
	if k == Exec {
		return "exec"
	}
	return "drain"
}

// Action is one transition of one processor.
type Action struct {
	Proc arch.ProcID
	Kind ActionKind
	// Arg is the drain-class index for PSO drains: which distinct
	// pending address (ordered by first occurrence in the buffer) the
	// drain completes the oldest store of. TSO and SC actions always
	// carry 0, and class 0 is the FIFO drain, so the zero value keeps
	// the historical TSO action encoding.
	Arg uint8
}

func (a Action) String() string {
	if a.Kind == Drain && a.Arg != 0 {
		return fmt.Sprintf("%v:%v#%d", a.Proc, a.Kind, a.Arg)
	}
	return fmt.Sprintf("%v:%v", a.Proc, a.Kind)
}

// Property is checked on every reachable state; returning a non-nil error
// marks the state (and the run) as violating.
type Property func(m *tso.Machine) error

// MutualExclusion fails on any state where two processors are inside
// their critical sections simultaneously.
func MutualExclusion(m *tso.Machine) error {
	if m.CSViolation {
		return fmt.Errorf("mutual exclusion violated")
	}
	return nil
}

// Outcome is the canonical summary of a quiesced final state: each
// processor's registers of interest.
type Outcome string

// OutcomeRegs selects which registers an outcome records.
var OutcomeRegs = []tso.Reg{0, 1, 2, 6}

// appendOutcome encodes m's outcome into dst. It runs once per quiesced
// final state, hot enough to show in exploration profiles, so it builds
// the string with strconv.AppendInt into a caller-reused buffer instead
// of fmt; the output is byte-identical to the historical
// fmt.Fprintf("P%d[", …"r%d=%d") format (tests pin that down).
func appendOutcome(dst []byte, m *tso.Machine) []byte {
	for i, p := range m.Procs {
		if p.Prog == nil {
			continue
		}
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, 'P')
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, '[')
		for j, r := range OutcomeRegs {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, 'r')
			dst = strconv.AppendInt(dst, int64(r), 10)
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, int64(p.Regs[r]), 10)
		}
		dst = append(dst, ']')
	}
	return dst
}

func outcomeOf(m *tso.Machine) Outcome {
	return Outcome(appendOutcome(nil, m))
}

// Options configures an exploration.
type Options struct {
	// Properties are invariants checked at every reachable state.
	Properties []Property

	// Workers sets the exploration worker-pool size; 0 (the default)
	// means runtime.GOMAXPROCS(0). Each worker runs DFS on a private
	// frontier and idle workers steal frames from busy ones, so the
	// aggregate result is identical to a serial exploration regardless
	// of the worker count.
	Workers int

	// MaxStates is the exploration budget in distinct states; 0 means
	// DefaultMaxStates. Hitting the budget is not an error: the engine
	// returns a graceful partial Result with Truncated set, carrying the
	// outcomes, violation counts, and first violation trace accumulated
	// so far. Synthesis and other automated callers use it to make
	// exploration of larger programs degrade predictably instead of
	// running unbounded.
	MaxStates int

	// StopOnViolation ends the search as soon as one violating trace is
	// found (the trace is still recorded). In the parallel engine the
	// cancellation is cross-worker and eager — every worker aborts at its
	// next frame, including frames already popped — so UNSAT verification
	// queries (e.g. the fence synthesizer's inner loop) fail fast instead
	// of exhausting the state space. Default behaviour (off) explores the
	// full space and is unchanged.
	//
	// Such a run also searches refutation first: the parallel engine
	// lists every enabled Drain before every Exec of a state (resolve,
	// plan.go), and Result.Obs carries the gauge
	// "search_refutation_first". Siblings are pushed in that order and
	// popped last first, and under Reduction each Exec child sleeps on
	// the earlier Drains it commutes with, so the search takes the
	// branches that keep stores buffered — the TSO-only interleavings a
	// fence must forbid — before those that drain them. On the fence
	// synthesizer's corpus that halves the states a refuted candidate
	// costs. Only the order changes: an unreduced run that finds no
	// violation visits the same states, and a reduced one keeps the
	// reduction's preservation contract (reduce.go) though which states
	// it visits may differ. Runs that explore everything keep the
	// model's order, in which the reduced SB catalog case visits 37
	// states rather than 41.
	StopOnViolation bool

	// Reduction asks for partial-order reduction: ample sets over a
	// footprint-based independence relation plus sleep sets, with a
	// cycle proviso so reduced cycles cannot postpone a processor
	// forever (reduce.go). The reduced search visits every quiesced
	// final state and every deadlock, so Outcomes and Deadlocks match
	// the unreduced reference exactly, and it preserves reachability of
	// violations for *stable* properties (once true, true on every
	// extension — MutualExclusion's latched CSViolation qualifies).
	// Violations counts per-state hits and may shrink;
	// States/Transitions shrink, which is the point. Whether a run
	// reduces is resolve's decision (plan.go): not under a Model whose
	// ReductionOK is false, or with more than 8 processors.
	// Result.Obs carries the gauge "reduction" when it did.
	//
	// Without Reduction, Explore still runs the sleep sets, alone,
	// wherever the same conditions hold, with or without a Symmetry:
	// they skip edges into states (or orbits) a commuting sibling
	// reaches, never a state, so every count stays the unreduced
	// search's and Transitions still counts every edge (reduce.go,
	// "Sleep sets alone"). Result.Obs then carries por_slept_transitions
	// but no "reduction" gauge. With Reduction and Symmetry together the
	// sleep sets are off: only ample sets and the cycle proviso reduce.
	// ExploreSerial without Reduction executes every edge.
	Reduction bool

	// Collapse keys the parallel engine's visited set on exact collapsed
	// tuples instead of 128-bit hash pairs: per-component intern tables
	// shared across the run plus a short fixed-width index tuple per state
	// (tso.Collapser), kept in the visited table's key arena. The tuple is
	// an exact state identity — no hashing, no collision risk — and costs
	// a fraction of the full serialization per state (24 B + ¾ of a key
	// per table slot). It is the same table, claim path and sleep-set
	// protocol either way; results are identical to the hashed engine's
	// (differential tests pin this). It is the one input to a fresh run's
	// key mode; a resumed run keys as its file does (resolve, plan.go).
	// ExploreSerial keys on full fingerprints, its own specification.
	Collapse bool

	// Symmetry declares a cyclic symmetry over a ring of interchangeable
	// processors (tso.Symmetry, produced by the N-process protocol
	// generators in internal/programs): the group is the rotations C_n of
	// the ring, not the symmetric group, which merges inequivalent states
	// (tso/symmetry.go says why). Both engines then key the visited set on
	// one representative per rotation orbit, so States and Transitions
	// shrink by at most the ring size n, and Outcomes keep one
	// representative per orbit; violation verdicts and Deadlocks are
	// preserved (a violating or deadlocked state's orbit representative
	// violates or deadlocks identically). Explore runs sleep sets alone
	// on the quotient graph unless Reduction is set (see Reduction). The
	// declaration is Validated against the loaded programs at
	// exploration start and the engine panics on a declaration the
	// programs do not satisfy. With Collapse
	// the parallel engine reports symmetry_rotated_keys and
	// symmetry_map_misses in Result.Obs: the keys whose representative is
	// a proper rotation, and those among them that had to build it
	// (tso.Canonicalizer.CollapsedKey).
	Symmetry *tso.Symmetry

	// MemBudget caps the resident bytes of the parallel engine's visited
	// set (0 = unlimited), counted as what its tables and key arenas
	// actually hold. Either key is fixed-width — a 16-byte hash pair or a
	// collapsed tuple — so cold stripes of the visited set spill to
	// mmap'd temp files as sorted record runs and still answer membership
	// queries, hashed or exact as the run keys. Exceeding the budget
	// makes the run slower, not truncated — exploration stays exhaustive.
	// A stripe's table never shrinks below what its unfinalized entries
	// need, so a budget under that floor is exceeded however much spills.
	// The collapse component tables are shared across the run and are
	// NOT counted against the budget (reported separately via Obs).
	// ExploreSerial keeps its whole visited map in memory.
	MemBudget int64

	// VerifyVisited makes the parallel engine keep every full state
	// fingerprint alongside its 128-bit hashed visited keys, using the
	// fingerprints as the authoritative identity and counting how often
	// the hashed keys would have merged distinct states (reported as
	// visited_128bit_collisions in Result.Obs). Costs memory and speed;
	// meant for soundness audits and tests, not routine exploration. The
	// audit runs with hashed keys, no MemBudget, no Checkpoint and no
	// Resume; resolve (plan.go) refuses each of those with it, by panic
	// like an invalid Symmetry: exact keys leave no hashed merge to audit,
	// and the in-memory audit map is neither spillable nor in a snapshot.
	VerifyVisited bool

	// Checkpoint configures periodic durable snapshots of the parallel
	// engine's exploration (visited set + frontier) so a killed run
	// resumes via Resume instead of restarting; see CheckpointOptions. A
	// snapshot stores the keys the run has, hash pairs or collapsed
	// tuples, and its frontier as replayable action traces, which a run
	// with a Dir therefore records (resolve, plan.go). A run that drains
	// writes no final snapshot; only an interrupted one does.
	Checkpoint CheckpointOptions

	// Interrupt, when non-nil, is polled by every worker between frames:
	// the exploration stops cooperatively (Result.Interrupted set, the
	// partial result returned) once it reads true. External controllers
	// — per-job timeouts, drain requests — use it to stop a run they
	// cannot otherwise reach; combined with Checkpoint the interrupted
	// run is resumable. ExploreSerial does not poll it.
	Interrupt *atomic.Bool

	// Faults is the chaos hook schedule for the robustness tests: the
	// engine consults it at fault.SpillWrite (spill I/O failure →
	// degrade to in-memory), fault.CkptTemp (crash after the checkpoint
	// temp write, before the atomic rename), and fault.CkptCommit
	// (crash right after a commit). A crash point aborts the run with
	// Result.Crashed set — in-process stand-in for SIGKILL, leaving the
	// on-disk checkpoint state exactly as a real kill would. Nil (the
	// default) injects nothing and costs nothing.
	Faults *fault.Injector
}

// DefaultMaxStates bounds the explored state count.
const DefaultMaxStates = 2_000_000

// Result summarizes an exploration.
type Result struct {
	// States is the number of distinct states visited.
	States int
	// Transitions is the number of transitions taken.
	Transitions int
	// Truncated is set when MaxStates was hit. The rest of the Result is
	// still a valid partial summary of the explored prefix — outcomes,
	// violations, and any recorded trace all stand — but absence of a
	// violation is no longer a proof of safety.
	Truncated bool
	// Violations counts states where a property failed.
	Violations int
	// FirstViolation describes the first property failure.
	FirstViolation error
	// ViolationTrace is the action sequence reaching the first violation.
	ViolationTrace []Action
	// Outcomes maps each quiesced final state's outcome to the number of
	// distinct final states producing it.
	Outcomes map[Outcome]int
	// Deadlocks counts non-quiesced states with no enabled action (a
	// processor blocked forever, e.g. store into a full buffer with
	// nothing draining — cannot happen since Drain is always enabled when
	// the buffer is non-empty, but the checker verifies that).
	Deadlocks int
	// Interrupted is set when Options.Interrupt stopped the run early;
	// like Truncated, the rest of the Result is a valid partial summary.
	Interrupted bool
	// Crashed is set when an armed Options.Faults crash point fired: the
	// run aborted as if the process had died at that instant. The
	// returned partial result is what the dying process knew; the
	// authoritative state for recovery is the on-disk checkpoint, which
	// Resume picks up.
	Crashed bool
	// Elapsed is the wall-clock duration of the exploration.
	Elapsed time.Duration
	// Obs carries the engine's observability counters: per-worker
	// visited-set claim attempts and wins (the duplicate rate the
	// work-stealing split achieves) plus a states_per_sec gauge. It is
	// reporting-only and deliberately excluded from the differential
	// comparison against the serial engine.
	Obs obs.Snapshot
}

// The two things a visited set can be keyed on, as Result.Keys, a
// checkpoint header, verdict.json and cmd/litmus -json name them.
const (
	KeysHashed    = "hashed-128"
	KeysCollapsed = "collapsed"
)

// keysName names the key mode of records whose keys are recKeyWidth wide.
func keysName(recKeyWidth int) string {
	if recKeyWidth == hashedKeyWidth {
		return KeysHashed
	}
	return KeysCollapsed
}

// Keys reports what the parallel engine's visited set was keyed on, as
// resolve (plan.go) decided it: KeysCollapsed under Options.Collapse or
// when resumed from a collapsed checkpoint, KeysHashed otherwise.
func (r *Result) Keys() string {
	if r.Obs.Gauges["collapse"] == 1 {
		return KeysCollapsed
	}
	return KeysHashed
}

// StatesPerSec reports exploration throughput; cmd/litmus -json emits it
// so BENCH_*.json can track checker performance across changes.
func (r *Result) StatesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.States) / r.Elapsed.Seconds()
}

// Has reports whether processor proc's section of the outcome contains
// every given "rK=V" fragment as a whole token. Matching is token-exact
// (the section is split on ','/'['/']'), so "r6=1" does not match
// "r6=12".
func (o Outcome) Has(proc int, frags ...string) bool {
	section := procSection(string(o), proc)
	if section == "" {
		return false
	}
	for _, f := range frags {
		if !sectionHasToken(section, f) {
			return false
		}
	}
	return true
}

// sectionHasToken reports whether frag appears as a complete
// delimiter-separated token of section (delimiters: ',', '[', ']').
func sectionHasToken(section, frag string) bool {
	for len(section) > 0 {
		var tok string
		if i := strings.IndexAny(section, ",[]"); i >= 0 {
			tok, section = section[:i], section[i+1:]
		} else {
			tok, section = section, ""
		}
		if tok == frag {
			return true
		}
	}
	return false
}

// HasOutcome reports whether an outcome matching all the given "rK=V"
// fragments for the given processor was observed, e.g.
// r.HasOutcome(0, "r6=1"). Fragments match whole register tokens, so
// "r6=1" does not match a state where r6 is 12.
func (r *Result) HasOutcome(proc int, frags ...string) bool {
	for o := range r.Outcomes {
		if o.Has(proc, frags...) {
			return true
		}
	}
	return false
}

// CountOutcomes returns how many distinct outcomes satisfy pred.
func (r *Result) CountOutcomes(pred func(Outcome) bool) int {
	n := 0
	for o := range r.Outcomes {
		if pred(o) {
			n++
		}
	}
	return n
}

func procSection(outcome string, proc int) string {
	tag := fmt.Sprintf("P%d[", proc)
	i := strings.Index(outcome, tag)
	if i < 0 {
		return ""
	}
	j := strings.Index(outcome[i:], "]")
	if j < 0 {
		return ""
	}
	return outcome[i : i+j+1]
}

// SortedOutcomes returns the outcomes in deterministic order, for
// printing.
func (r *Result) SortedOutcomes() []Outcome {
	out := make([]Outcome, 0, len(r.Outcomes))
	for o := range r.Outcomes {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Replay applies a recorded trace to a fresh machine from build,
// returning the resulting machine. Used to render violation traces.
// Traces recorded under any model replay exactly: each Drain action
// carries the class of the entry it completed (see replayApply).
func Replay(build func() *tso.Machine, trace []Action) *tso.Machine {
	m := build()
	for _, a := range trace {
		replayApply(m, a)
	}
	return m
}

// FormatTrace renders a trace with the instruction each exec step
// committed, for human inspection of counterexamples.
func FormatTrace(build func() *tso.Machine, trace []Action) string {
	m := build()
	var sb strings.Builder
	for i, a := range trace {
		switch a.Kind {
		case Exec:
			p := m.Procs[a.Proc]
			in := p.Prog.Instrs[p.PC]
			fmt.Fprintf(&sb, "%3d. %v exec  %v\n", i, a.Proc, in)
		case Drain:
			e := m.Procs[a.Proc].SB.At(m.Procs[a.Proc].SB.ClassOldestIndex(int(a.Arg)))
			fmt.Fprintf(&sb, "%3d. %v drain [0x%x]=%d\n", i, a.Proc, uint32(e.Addr), int64(e.Val))
		}
		replayApply(m, a)
	}
	return sb.String()
}
