package synth

import (
	"repro/internal/arch"
	"repro/internal/tso"
)

// This file prices placements with a static, frequency-weighted cycle
// model built entirely from arch.CostModel unit costs. It reproduces the
// tradeoff of Section 5 of the paper: an mfence charges the *executing*
// thread every time (serialization plus the expected buffer drain),
// while an l-mfence is nearly free locally but charges a full LE/ST
// round trip whenever a *remote* thread touches the guarded location
// and breaks the link. Which side wins therefore depends on how often
// each thread runs — the paper's asymmetric protocols put the l-mfence
// on the hot primary and the mfence on the rarely-intervening
// secondary, and under the default primary weight the optimizer derives
// exactly that split.
//
// Per atom, with w[t] the executing thread's frequency weight:
//
//	mfence:    w[t] * (MfenceBase + StoreBufferDrainPerEntry)
//	l-mfence:  w[t] * (LELinkSetup + L1Hit + 2*RegOp)
//	         + Σ over other threads u, over static accesses (loads AND
//	           stores, resolvable indexed included) of the guarded
//	           location in u's base program: w[u] * LESTRoundTrip
//
// The mfence term charges the serialization base plus one expected
// buffer-entry drain (the attached store is in the buffer when the
// fence executes). The l-mfence local term is the link-register setup,
// the exclusive load of the guarded line, and the two bookkeeping ops
// of the Fig. 3(b) sequence (link begin and the final branch). The
// remote term counts each static access of the guarded location in
// another thread's program as one link break: a round trip in which the
// guard owner is notified, flushes, and replies before the toucher's
// access completes. The paper's §5 model makes no load/store
// distinction here — *any* remote acquisition of the guarded line
// breaks the link — so remote stores count equally, and register-
// indexed accesses count whenever constant propagation (regConsts
// below) pins their target; an earlier version counted only direct
// OpLoad accesses, which undercounted remote traffic and could rank an
// l-mfence under an mfence on store-heavy remote threads.

// mfenceUnitCost is the per-execution cost of one inserted mfence.
func mfenceUnitCost(cm arch.CostModel) float64 {
	return float64(cm.MfenceBase + cm.StoreBufferDrainPerEntry)
}

// lmfenceLocalCost is the executing thread's cost of one l-mfence whose
// link survives (the fast path the mechanism exists to enable).
func lmfenceLocalCost(cm arch.CostModel) float64 {
	return float64(cm.LELinkSetup + cm.L1Hit + 2*cm.RegOp)
}

// remoteTouchesOf counts static accesses of addr in prog (nil-safe):
// loads, LE reads, stores of every flavor, and indexed accesses whose
// index register provably holds one constant. Each is one potential
// link break charged a round trip.
func remoteTouchesOf(prog *tso.Program, addr arch.Addr) int {
	if prog == nil {
		return 0
	}
	val, known := regConsts(prog)
	n := 0
	for _, in := range prog.Instrs {
		switch in.Op {
		case tso.OpLoad, tso.OpLE, tso.OpStore, tso.OpStoreI, tso.OpStoreLinked, tso.OpStoreLinkedReg:
			if in.Addr == addr {
				n++
			}
		case tso.OpLoadIdx, tso.OpStoreIdx:
			if known[in.Ra] && in.Addr+arch.Addr(val[in.Ra]) == addr {
				n++
			}
		}
	}
	return n
}

// regConsts computes, per register, whether the register provably holds
// one known constant at every point of the program: never written
// (zero) or written only by loadi of a single immediate. Any other
// writer — memory loads, arithmetic, LE — makes the register unknown.
func regConsts(prog *tso.Program) (val [tso.NumRegs]arch.Word, known [tso.NumRegs]bool) {
	written := [tso.NumRegs]bool{}
	for i := range known {
		known[i] = true
	}
	for _, in := range prog.Instrs {
		switch in.Op {
		case tso.OpLoadI:
			r := in.Rd
			if written[r] && val[r] != in.Imm {
				known[r] = false
			}
			written[r] = true
			if known[r] {
				val[r] = in.Imm
			}
		case tso.OpLoad, tso.OpLoadIdx, tso.OpLE, tso.OpAdd, tso.OpAddI, tso.OpSub:
			known[in.Rd] = false
		}
	}
	return val, known
}

// placementCost prices a placement over the given base programs under
// cost model cm and per-thread frequency weights w. Cost is monotone in
// adding atoms, so the cheapest repair is always among the minimal ones.
func placementCost(p Placement, progs []*tso.Program, cm arch.CostModel, w []float64) float64 {
	total := 0.0
	for _, a := range p {
		wt := 1.0
		if a.Thread < len(w) {
			wt = w[a.Thread]
		}
		switch a.Kind {
		case KindMfence:
			total += wt * mfenceUnitCost(cm)
		case KindLmfence:
			total += wt * lmfenceLocalCost(cm)
			if a.AddrKnown {
				for u, prog := range progs {
					if u == a.Thread {
						continue
					}
					wu := 1.0
					if u < len(w) {
						wu = w[u]
					}
					total += float64(remoteTouchesOf(prog, a.Addr)) * wu * float64(cm.LESTRoundTrip)
				}
			}
		}
	}
	return total
}
