package litmus

import (
	"math/bits"

	"repro/internal/arch"
	"repro/internal/tso"
)

// This file implements the partial-order reduction behind
// Options.Reduction: an ample-set rule (explore only one processor's
// transitions when they provably commute with everything other
// processors can ever do) layered with sleep sets (skip expansions whose
// resulting interleaving is a reordering of independent actions already
// being explored). Both engines share it under Options.Reduction.
// Without it the parallel engine still runs the sleep sets, alone (see
// "Sleep sets alone" below), and ExploreSerial runs neither: it remains
// the unreduced reference.
//
// Independence is footprint-based. Every action gets a read set and a
// write set over abstract resources derived from the tso.Machine state:
//
//   - two private resources per processor: the *core* (PC, registers,
//     flags, halt bit, LE/ST link registers) and the *store buffer*
//     (its pending contents),
//   - one resource per memory word, covering the word's memory cell,
//     every cache's copy of it, and every guard armed on it,
//   - one critical-section resource covering every processor's InCS flag
//     and the latched CSViolation bit.
//
// Two enabled actions are independent when their footprints do not
// conflict (neither writes what the other reads or writes). That gives
// commutation at the fingerprint level: executing them in either order
// reaches the same state, and neither disables the other. Loads count as
// word *reads* even on a cache miss — two read misses downgrade and fill
// the same line states in either order — while anything that drains,
// invalidates, or arms a guard on a word is a word write. Two escape
// hatches keep the mapping sound:
//
//   - An access to a word guarded by *another* processor breaks that
//     guard and flushes the remote store buffer (an unbounded cascade of
//     bus writes), so its footprint is conservatively global.
//   - Address bits are folded modulo the bit budget; two distinct words
//     may alias to one bit and be treated as dependent. Aliasing only
//     ever *adds* conflicts, so it costs precision, never soundness.
//
// Two ample rules choose persistent sets; both require the chosen
// processor p to have no armed guard (so no remote access can reach into
// p's private state by breaking it) and both rely on the fact that only
// p's own exec — which is inside the chosen set — can ever arm one:
//
//   - Singleton: if Exec(p) touches nothing but p's core and p holds no
//     link registers, T = {Exec(p)}. A pure register/control commit
//     commutes with every other-processor action *and with p's own
//     drains* (drains touch the buffer and words; they only reach the
//     core through a linked-store completion, excluded by the no-links
//     condition), so it can soundly be committed first.
//   - Whole-processor: if every enabled action of p touches only p's
//     private resources and words no *other* processor's program can
//     statically reach, T = all of p's enabled actions.
//
// Either way any sequence of non-T actions leaves T enabled and commutes
// with it, so every deadlock, every quiesced final state, and every
// latched-property violation reachable from here is still reached. When
// no processor qualifies, every enabled action is expanded and only the
// sleep sets prune.
//
// Cycle proviso. The ample argument alone suffers the classic ignoring
// problem: if the chosen set's actions form a cycle in the reduced graph
// (e.g. a pure control self-loop "L: jmp L", whose commit is a core-only
// singleton ample set at every state of the cycle), the cycle closes on
// the visited set and the excluded processors are postponed forever —
// the search terminates without ever running them. Both engines
// therefore apply the closed-set proviso (Bošnački, Leue &
// Lluch-Lafuente, "Partial-order reduction for general state exploring
// algorithms"): a state may use a proper ample subset only if none of
// the subset's successor states is already in the visited set. A
// candidate that trips the probe is rejected and the next ample
// candidate (a different processor) is tried; only when every candidate
// trips does the state expand fully. Since a state enters the visited
// set exactly when it
// is claimed for expansion, the last-claimed state of any cycle sees its
// cycle successor already visited and is forced to expand fully, so
// every cycle in the reduced graph contains a fully expanded state and
// no enabled action is ignored forever. In the parallel engine each
// claim happens-before the claimer's own successor probes (both are
// made under the stripe locks), so the argument survives work-stealing
// races: for any cycle, the worker holding the last-claimed state
// probes after every other claim on the cycle has landed.
//
// The probe is only needed where a cycle can close — the static cycle
// condition of Kurshan et al., "Static partial order reduction". Only
// ExecStep writes a PC, a halt bit is never cleared, and a store buffer
// grows only through its own processor's store commits. So along any
// state cycle every processor that executes walks a closed path in its
// control-flow graph, and every pc on such a path lies in the [target,
// branch] span of some backward edge (the first step of the path that
// drops to or below the pc is one). A Drain(p) on a state cycle forces p
// to commit a store again inside the cycle, at a pc in one of those
// spans. Under symmetry a quotient cycle lifts to a concrete one by
// concatenating its rotations; ring members share one control-flow
// template (renaming rewrites addresses and immediates, never ops or
// targets) and bystanders are fixed points, so the same holds. mayCycle
// flags a candidate with an action of either kind, and every edge of a
// reduced-graph cycle is such an action in its source state's chosen
// set, so the last-claimed state above still probes, and still demotes.
// Unflagged candidates skip the probe: on a loop-free program, none is
// ever probed or demoted.
//
// Asleep ample sets. A state whose chosen ample set T lies wholly in its
// sleep set expands nothing: the sleep set says a sibling branch covers
// T, and the ample argument says the excluded processors may wait until
// T has run. On a cycle the two delegations can point at each other. In
// "L: storei [13],1; jmp L" on P0 beside two "cs_enter; cs_exit; halt"
// threads, the proviso demotes the state S where P0's buffer is full to
// T = {D0, E1, E2}. The E1 and E2 children inherit sleep {D0}, each
// chooses the ample set {D0}, which is asleep, and expands nothing;
// the D0 branch they rely on re-enters P0's cycle, where the ample sets
// again run P0 alone until the visited set closes it. The critical
// sections never overlap on any explored path, though 171 unreduced
// states violate. So both engines demote a wholly asleep T for which
// mayCycle holds to full expansion, still filtered by the sleep set:
// such a state runs the excluded processors itself rather than
// delegating them to a branch that may never run them, which is the
// plain sleep-set search at that state. The demotion only adds
// expansions, and mayCycle never holds on a loop-free program, so
// there nothing changes.
//
// Sleep sets alone. An exploration that must keep every state (TSO or
// SC, no Reduction, at most maxReductionProcs processors, with or
// without Symmetry) runs the sleep sets without ample sets: analyze
// chooses every enabled action (reducer.sleepOnly), so no proviso ever
// probes and nothing above about ample sets applies. A sleep set never
// drops a state (Godefroid, "Partial-Order Methods for the Verification
// of Concurrent Systems", LNCS 1032): an action t asleep at s was put
// to sleep by a sibling branch u, independent of t, that had already
// been taken, and that branch executes t from u(s), reaching
// t(u(s)) = u(t(s)); so only edges are skipped, each into a state a
// commuting path reaches. With state caching that argument needs the
// revisit rule, which both engines apply: a state keeps the actions its
// expansion withheld, an arrival whose sleep set lacks some of them
// re-expands exactly those (with empty child sleep sets), and the
// stored set shrinks to the intersection. So every arrival path's claim
// on the state is honoured, whichever arrived first, and a state cycle
// cannot make two promises cover each other: the arrival that closes a
// cycle reads what was withheld and re-expands what its own sleep set
// does not cover. The parallel engine publishes what a state withholds
// through finalize, as in a reduced run: with every enabled action
// chosen, the entry's pruned mask is the part of them the sleep sets
// merged so far cover, and every later arrival reads it. States,
// Outcomes, Violations and Deadlocks are therefore the unreduced
// search's (TestReductionDifferential and TestSleepSetsKeepEveryState
// hold them equal, and the 500-seed differential does too), and
// Transitions still counts every edge of the full graph: a state's
// enabled actions count once, when its claim winner expands it, and a
// re-expansion counts nothing. por_slept_transitions counts the edges
// withheld at expansion, por_reexpansions the ones a later arrival
// executed after all.
//
// Under Symmetry the same search runs on the quotient graph (Emerson,
// Jha & Peled, "Combining Partial Order and Symmetry Reductions", TACAS
// 1997). Name each action in its state's canonical numbering: the
// quotient is then a deterministic labelled graph, whose node is an
// orbit's representative c and whose edge a leads to the representative
// of a(c). Its sleep masks are what the visited entries hold, and an
// arrival's mask crosses into them through the canonicalizer's slot map
// (permuteMask, and unpermuteMask on the way back). Footprints are
// taken on the live machine, and what their independence asserts,
// commutation, is invariant under a rotation (it renames processors and
// the words of the declared blocks alike, an automorphism of the state
// graph): actions that commute at s commute at every rotation of s, so
// a commuting pair still closes its diamond in the quotient, with the
// labels translated along each edge. The revisit rule then gives
// Godefroid's guarantee there: an action stays unexecuted at an orbit
// only while every arrival so far had it asleep, whichever rotation each
// arrived through, so two siblings that land in one orbit (b = ρ(a) with
// ρ(s) = s) leave it the intersection of their masks and cannot leave
// each other's promise unkept. Every orbit is kept, with the counts
// ExploreSerial's symmetric reference gives (TestSleepSetsKeepEveryState's
// symmetric leg). What breaks under symmetry is the ample sets'
// delegation, not the sleep sets: with Reduction and Symmetry together
// every sleep mask stays empty (see ExploreSerial).
//
// Two kinds of run without Reduction keep no reducer. Under PSO a
// processor has one drain per pending address class, which footprintOf
// does not model (Model.ReductionOK is false). Beyond maxReductionProcs
// processors the action masks are too narrow. ExploreSerial keeps none
// either: without Reduction it is the unreduced reference.
//
// What the reduction preserves (pinned by TestReductionDifferential):
// the exact Outcomes multiset (all quiesced final states are visited),
// the exact Deadlocks count, and reachability of violations for *stable*
// properties — ones that, once true, stay true on every extension, like
// MutualExclusion via the latched Machine.CSViolation. Violations counts
// individual violating states and so may legitimately shrink.

// maxReductionProcs bounds the processor count the reduction's resource
// bitmasks support (two private resource bits per processor). Machines
// with more processors fall back to unreduced exploration.
const maxReductionProcs = 8

// actionMask is a bitset over the at most 2*maxReductionProcs possible
// actions of a state: bit 2*proc+kind.
type actionMask uint32

func maskOf(a Action) actionMask {
	return 1 << (uint(a.Proc)*2 + uint(a.Kind))
}

// maskOfAll is the mask of every action in enabled.
func maskOfAll(enabled []Action) actionMask {
	var m actionMask
	for _, a := range enabled {
		m |= maskOf(a)
	}
	return m
}

// Resource-bit layout of a footprint: two private bits per processor
// first, then the critical-section bit, then the memory-word bits.
const (
	fpCSBit    = uint64(1) << (2 * maxReductionProcs)
	fpAddrBase = 2*maxReductionProcs + 1
	fpAddrBits = 64 - fpAddrBase
)

// coreBit is p's PC/registers/flags/links resource; sbBit is p's pending
// store-buffer contents.
func coreBit(p arch.ProcID) uint64 { return 1 << (2 * uint(p)) }
func sbBit(p arch.ProcID) uint64   { return 1 << (2*uint(p) + 1) }

func addrBit(a arch.Addr) uint64 {
	return 1 << (fpAddrBase + uint64(uint32(a))%fpAddrBits)
}

// fpAddrMask is the union of every memory-word resource bit.
const fpAddrMask = uint64((1<<fpAddrBits)-1) << fpAddrBase

// footprint is one action's read/write resource sets.
type footprint struct {
	r, w uint64
}

func (f *footprint) global() { f.r, f.w = ^uint64(0), ^uint64(0) }

// independent reports whether two actions with these footprints commute:
// neither writes anything the other reads or writes.
func independent(a, b footprint) bool {
	return a.w&(b.r|b.w) == 0 && b.w&(a.r|a.w) == 0
}

// reducer holds the per-exploration static analysis: which memory words
// each processor's program can ever touch. Built once from the root
// machine.
type reducer struct {
	sc bool
	// sleepOnly makes analyze choose every enabled action: sleep sets
	// without ample sets, the mode resolve gives a run without
	// Options.Reduction (see "Sleep sets alone" in the file comment).
	sleepOnly bool
	// othersMay[p] is the union of the address resource bits statically
	// reachable by every processor except p. An action of p whose address
	// bits avoid it can never conflict with another processor's access.
	othersMay []uint64
	// ownAllowed[p] is the resource set an action of p may touch while
	// remaining ample-eligible: p's private bit plus the words no other
	// processor reaches.
	ownAllowed []uint64
	// loops[p] lists the spans of p's backward control edges, and bit p
	// of loopStores is set when one of them holds a store commit. Both
	// stay empty for loop-free programs (see mayCycle).
	loops      [][]loopSpan
	loopStores uint32
}

// loopSpan is the pc interval [lo, hi] of a backward control edge from
// hi to lo.
type loopSpan struct{ lo, hi int }

// newReducer builds the reducer for the machine rooted at m, which has at
// most maxReductionProcs processors (resolve decides whether a run
// reduces, and whether with sleep sets alone).
func newReducer(m *tso.Machine, sc, sleepOnly bool) *reducer {
	rd := &reducer{
		sc:         sc,
		sleepOnly:  sleepOnly,
		othersMay:  make([]uint64, len(m.Procs)),
		ownAllowed: make([]uint64, len(m.Procs)),
	}
	may := make([]uint64, len(m.Procs))
	for i, p := range m.Procs {
		may[i] = staticAddrMask(p.Prog)
		if spans, store := loopSpans(p.Prog); spans != nil {
			if rd.loops == nil {
				rd.loops = make([][]loopSpan, len(m.Procs))
			}
			rd.loops[i] = spans
			if store {
				rd.loopStores |= 1 << uint(i)
			}
		}
	}
	for i := range m.Procs {
		for j := range m.Procs {
			if j != i {
				rd.othersMay[i] |= may[j]
			}
		}
		p := arch.ProcID(i)
		rd.ownAllowed[i] = coreBit(p) | sbBit(p) | (fpAddrMask &^ rd.othersMay[i])
	}
	return rd
}

// staticAddrMask folds every memory word prog can touch into address
// resource bits. Register-indexed accesses resolve at run time, so they
// conservatively claim every word.
func staticAddrMask(prog *tso.Program) uint64 {
	if prog == nil {
		return 0
	}
	var mask uint64
	for _, in := range prog.Instrs {
		switch in.Op {
		case tso.OpLoad, tso.OpStore, tso.OpStoreI,
			tso.OpLinkBegin, tso.OpLE, tso.OpStoreLinked, tso.OpStoreLinkedReg:
			mask |= addrBit(in.Addr)
		case tso.OpLoadIdx, tso.OpStoreIdx:
			return fpAddrMask
		}
	}
	return mask
}

// loopSpans lists the spans of prog's backward control edges (nil for a
// forward-only program) and reports whether any span holds an
// instruction that commits a store to the buffer.
func loopSpans(prog *tso.Program) (spans []loopSpan, store bool) {
	if prog == nil {
		return nil, false
	}
	for pc, in := range prog.Instrs {
		switch in.Op {
		case tso.OpJmp, tso.OpBeq, tso.OpBne, tso.OpBlt:
			if in.Target <= pc {
				spans = append(spans, loopSpan{in.Target, pc})
				for _, b := range prog.Instrs[in.Target : pc+1] {
					store = store || b.Op.IsStore()
				}
			}
		}
	}
	return spans, store
}

// mayCycle reports whether an action of pl's chosen set can lie on a
// state cycle: an Exec at a pc inside one of its processor's loop spans,
// or a Drain of a processor whose spans hold a store commit. Only such a
// candidate needs the cycle proviso's probe (see the file comment).
func (rd *reducer) mayCycle(m *tso.Machine, enabled []Action, pl *porScratch) bool {
	if rd.loops == nil {
		return false
	}
	for _, i := range pl.tidx {
		a := enabled[i]
		if a.Kind == Drain && rd.loopStores&(1<<uint(a.Proc)) != 0 {
			return true
		}
		for _, s := range rd.loops[a.Proc] {
			if pc := m.Procs[a.Proc].PC; a.Kind == Exec && s.lo <= pc && pc <= s.hi {
				return true
			}
		}
	}
	return false
}

// access folds a memory-word touch into fp. A word guarded by another
// processor makes the action global: the bus transaction breaks the
// guard, and the guard handler flushes the remote store buffer.
func (rd *reducer) access(fp *footprint, m *tso.Machine, self arch.ProcID, addr arch.Addr, write bool) {
	for q := range m.Procs {
		if arch.ProcID(q) != self && m.Sys.Guarded(arch.ProcID(q), addr) {
			fp.global()
			return
		}
	}
	b := addrBit(addr)
	fp.r |= b
	if write {
		fp.w |= b
	}
}

// flushFootprint adds the footprint of draining p's whole store buffer
// (mfence, link-capacity flush, link-break fallback).
func (rd *reducer) flushFootprint(fp *footprint, m *tso.Machine, p *tso.Proc) {
	for i, n := 0, p.SB.Len(); i < n; i++ {
		rd.access(fp, m, p.ID, p.SB.At(i).Addr, true)
		if fp.w == ^uint64(0) {
			return
		}
	}
}

// footprintOf computes the footprint of enabled action a in state m.
// Every case mirrors the corresponding branch of Machine.ExecStep or
// DrainStep; anything unrecognized is conservatively global.
func (rd *reducer) footprintOf(m *tso.Machine, a Action) footprint {
	p := m.Procs[a.Proc]
	if a.Kind == Drain {
		fp := footprint{r: sbBit(a.Proc), w: sbBit(a.Proc)}
		if p.LinkCount() > 0 {
			// Completing a linked store clears LEBit and drops the link:
			// the drain reaches into the core. (Conservative: charged
			// whenever any link is held, not just when the oldest entry is
			// the linked one.)
			fp.r |= coreBit(a.Proc)
			fp.w |= coreBit(a.Proc)
		}
		e, _ := p.SB.Oldest()
		rd.access(&fp, m, a.Proc, e.Addr, true)
		return fp
	}
	// Every commit advances the PC; enabledness reads the core (halt bit).
	fp := footprint{r: coreBit(a.Proc), w: coreBit(a.Proc)}
	in := p.Prog.Instrs[p.PC]
	switch in.Op {
	case tso.OpNop, tso.OpLoadI, tso.OpAdd, tso.OpAddI, tso.OpSub,
		tso.OpBeq, tso.OpBne, tso.OpBlt, tso.OpJmp, tso.OpHalt:
		// Pure register/control transfer: core only.

	case tso.OpLoad, tso.OpLoadIdx:
		addr := in.Addr
		if in.Op == tso.OpLoadIdx {
			addr += arch.Addr(p.Regs[in.Ra])
		}
		if p.SB.Contains(addr) {
			// Forwarded from the buffer: never reaches the bus, but the
			// value (and whether forwarding happens at all) depends on the
			// buffer contents.
			fp.r |= sbBit(a.Proc)
		} else {
			// A read miss only moves lines toward Shared; two read misses
			// commute, so this is a word *read*.
			rd.access(&fp, m, a.Proc, addr, false)
		}

	case tso.OpStore, tso.OpStoreI, tso.OpStoreIdx:
		addr := in.Addr
		if in.Op == tso.OpStoreIdx {
			addr += arch.Addr(p.Regs[in.Ra])
		}
		// The commit only appends to p's buffer (enabledness also reads
		// its fullness); under SC the drain fuses into the transition.
		fp.r |= sbBit(a.Proc)
		fp.w |= sbBit(a.Proc)
		if rd.sc {
			rd.flushFootprint(&fp, m, p)
			rd.access(&fp, m, a.Proc, addr, true)
		}

	case tso.OpMfence:
		fp.r |= sbBit(a.Proc)
		fp.w |= sbBit(a.Proc)
		rd.flushFootprint(&fp, m, p)

	case tso.OpLinkBegin:
		maxLinks := m.Cfg.Links
		if maxLinks <= 0 {
			maxLinks = 1
		}
		if !p.HasLink(in.Addr) && p.LinkCount() >= maxLinks {
			// Link registers full: flushes, then disarms every own guard.
			fp.r |= sbBit(a.Proc)
			fp.w |= sbBit(a.Proc)
			rd.flushFootprint(&fp, m, p)
			for i := 0; i < p.LinkCount(); i++ {
				rd.access(&fp, m, a.Proc, p.LinkAddr(i), true)
			}
		}

	case tso.OpLE:
		// ReadExclusive invalidates peer copies and arms the guard.
		rd.access(&fp, m, a.Proc, in.Addr, true)

	case tso.OpStoreLinked, tso.OpStoreLinkedReg:
		fp.r |= sbBit(a.Proc)
		fp.w |= sbBit(a.Proc)
		if rd.sc {
			rd.flushFootprint(&fp, m, p)
			rd.access(&fp, m, a.Proc, in.Addr, true)
		}

	case tso.OpLinkBranch:
		if !p.LEBit {
			// Broken link: mfence fallback.
			fp.r |= sbBit(a.Proc)
			fp.w |= sbBit(a.Proc)
			rd.flushFootprint(&fp, m, p)
		}

	case tso.OpCSEnter, tso.OpCSExit:
		fp.r |= fpCSBit
		fp.w |= fpCSBit

	default:
		fp.global()
	}
	return fp
}

// porScratch is the reusable scratch for one state's reduced expansion.
type porScratch struct {
	fps []footprint
	// tidx lists the chosen persistent set as indices into enabled.
	tidx  []int
	tmask actionMask
	ample bool
	// idx/childSleep are the expansion: which T members survive the sleep
	// set, with each child's sleep mask.
	idx        []int
	childSleep []actionMask
	pruned     actionMask
}

// analyze computes footprints and chooses the persistent set for the
// enabled actions of m. It is independent of the sleep set, so the
// parallel engine can run it before fetching the merged sleep mask from
// the visited entry. The caller must still apply the cycle proviso:
// while pl.ample, mayCycle holds and any successor via pl.tidx is
// already visited, re-choose with the rejected candidate's processor in
// skip, falling through to full expansion when no candidate survives
// (see the file comment), and then, once the sleep mask is known,
// fall through to full expansion if it covers all of an ample pl.tidx
// for which mayCycle holds. Only the claim-winning visit of a state
// expands it, so the proviso's dependence on visited-set contents cannot
// split one state's expansion across different chosen sets.
func (rd *reducer) analyze(m *tso.Machine, enabled []Action, pl *porScratch) {
	pl.fps = pl.fps[:0]
	for _, a := range enabled {
		pl.fps = append(pl.fps, rd.footprintOf(m, a))
	}
	if rd.sleepOnly {
		pl.fullExpand(enabled)
		return
	}
	rd.choose(m, enabled, pl, 0)
}

// choose picks the persistent set among the enabled actions of
// processors not in skip, a ProcID bitmask of ample candidates the
// cycle proviso has rejected at this state. pl.fps must already be
// filled (analyze does both). The engines call it again with a grown
// skip each time a candidate's successor probe trips, so a state tries
// every ample candidate before being demoted to full expansion.
func (rd *reducer) choose(m *tso.Machine, enabled []Action, pl *porScratch, skip uint32) {
	pl.tidx = pl.tidx[:0]
	pl.tmask = 0
	pl.ample = false

	// Singleton tier: a commit by an unguarded, link-free processor that
	// touches nothing beyond its own core and store buffer — a register
	// or control op, or a TSO store commit (invisible to everyone until
	// drained, and commuting with the processor's own drains: the drain
	// pops the oldest entry, the commit appends a new one). Crucially the
	// footprint must stay core+buffer along *every* trace of non-chosen
	// actions, so buffer-forwarded loads do not qualify: once a drain
	// pops the only forwardable entry the load becomes a globally
	// visible word read. (The footprint relation still treats commit and
	// drain of one processor as dependent — the sleep sets stay
	// conservative; only this ample tier uses the stronger argument.)
	for i, a := range enabled {
		if a.Kind != Exec || skip&(1<<uint(a.Proc)) != 0 {
			continue
		}
		if (pl.fps[i].r|pl.fps[i].w)&^(coreBit(a.Proc)|sbBit(a.Proc)) != 0 {
			continue
		}
		p := m.Procs[a.Proc]
		if op := p.Prog.Instrs[p.PC].Op; op == tso.OpLoad || op == tso.OpLoadIdx {
			continue
		}
		if p.LinkCount() > 0 {
			// A pending linked store's completion would clear LEBit — a
			// core write by a non-T drain.
			continue
		}
		if _, armed := m.Sys.GuardArmed(a.Proc); armed {
			continue
		}
		pl.tidx = append(pl.tidx, i)
		pl.tmask = maskOf(a)
		pl.ample = true
		return
	}

	// Whole-processor tier: all of p's enabled actions touch only p's
	// private resources and words no other processor can reach.
	for pid := range m.Procs {
		if skip&(1<<uint(pid)) != 0 {
			continue
		}
		p := arch.ProcID(pid)
		first := -1
		ok := false
		for i, a := range enabled {
			if a.Proc != p {
				continue
			}
			if first < 0 {
				first, ok = i, true
			}
			if (pl.fps[i].r|pl.fps[i].w)&^rd.ownAllowed[pid] != 0 {
				ok = false
				break
			}
		}
		if first < 0 || !ok {
			continue
		}
		if _, armed := m.Sys.GuardArmed(p); armed {
			// A remote access could break the guard and flush p's buffer,
			// reaching into p's private state.
			continue
		}
		for i, a := range enabled {
			if a.Proc == p {
				pl.tidx = append(pl.tidx, i)
				pl.tmask |= maskOf(a)
			}
		}
		pl.ample = true
		return
	}
	pl.fullExpand(enabled)
}

// fullExpand resets the chosen set to every enabled action: the
// fallback when no processor qualifies as ample, and the demotion the
// engines apply when a chosen ample subset on a possible cycle has an
// already-visited successor or lies wholly in the sleep set.
func (pl *porScratch) fullExpand(enabled []Action) {
	pl.tidx = pl.tidx[:0]
	pl.tmask = 0
	pl.ample = false
	for i, a := range enabled {
		pl.tidx = append(pl.tidx, i)
		pl.tmask |= maskOf(a)
	}
}

// expansion applies sleep set z to the chosen persistent set: T members
// in z are withheld (recorded in pl.pruned, to be stored on the visited
// entry), and each expanded child inherits the sleeping actions that
// stay independent of the action taken, plus the already-expanded
// siblings that commute with it.
func (rd *reducer) expansion(enabled []Action, pl *porScratch, z actionMask) {
	pl.idx = pl.idx[:0]
	pl.childSleep = pl.childSleep[:0]
	pl.pruned = 0

	// A sleeping action must be enabled here (sleep members are enabled
	// and independent in the parent, which preserves both); drop any bit
	// with no matching enabled action — pure over-approximation safety.
	z &= maskOfAll(enabled)

	for _, i := range pl.tidx {
		bi := maskOf(enabled[i])
		if z&bi != 0 {
			pl.pruned |= bi
			continue
		}
		var cs actionMask
		carry := z
		for _, j := range pl.tidx {
			if j == i {
				break
			}
			if m := maskOf(enabled[j]); m&pl.pruned == 0 {
				carry |= m
			}
		}
		for j, a := range enabled {
			bj := maskOf(a)
			if carry&bj != 0 && bj != bi && independent(pl.fps[i], pl.fps[j]) {
				cs |= bj
			}
		}
		pl.idx = append(pl.idx, i)
		pl.childSleep = append(pl.childSleep, cs)
	}
}

// sleptCount reports how many actions pl withheld.
func (pl *porScratch) sleptCount() int { return bits.OnesCount32(uint32(pl.pruned)) }
