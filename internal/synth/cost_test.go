package synth

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// TestRemoteTouchesOf pins the corrected remote-traffic count behind the
// l-mfence pricing: every static access of the guarded location — loads,
// LE reads, stores of every flavor, and indexed accesses whose index
// register provably holds one constant — is one potential link break.
func TestRemoteTouchesOf(t *testing.T) {
	target := programs.AddrX
	base := arch.Addr(2)
	off := arch.Word(target - base)

	prog := tso.NewBuilder("toucher").
		Load(1, target).        // direct load: counts
		LE(2, target).          // LE read: counts
		StoreI(target, 1).      // immediate store: counts
		Store(target, 1).       // register store: counts
		LoadI(3, off).          // pins r3 = off
		LoadIdx(4, base, 3).    // resolves to target: counts
		StoreIdx(base, 3, 1).   // resolves to target: counts
		Load(5, programs.AddrY) // other address: ignored
		// r5 was written by a memory load, so accesses indexed by it
		// cannot resolve and must not count either way.
	prog.LoadIdx(6, base, 5).Halt()

	if got := remoteTouchesOf(prog.Build(), target); got != 6 {
		t.Errorf("remoteTouchesOf = %d, want 6 (load, LE, 2 stores, 2 resolved indexed)", got)
	}
	if got := remoteTouchesOf(nil, target); got != 0 {
		t.Errorf("remoteTouchesOf(nil) = %d, want 0", got)
	}
}

// TestRemoteStoresFlipCostRanking is the regression pin for the
// remote-touch undercount: a remote thread that only *stores* to the
// guarded location used to contribute zero link breaks, pricing the
// l-mfence at its 7-cycle local cost and ranking it under the 70-cycle
// mfence. With stores counted, three remote stores cost 3×150 round
// trips and the ranking flips to the mfence.
func TestRemoteStoresFlipCostRanking(t *testing.T) {
	guarded := programs.AddrX
	t0 := tso.NewBuilder("primary").StoreI(guarded, 1).Halt().Build()
	t1b := tso.NewBuilder("remote-writer")
	for i := 0; i < 3; i++ {
		t1b.StoreI(guarded, arch.Word(i))
	}
	t1 := t1b.Halt().Build()
	progs := []*tso.Program{t0, t1}

	cm := ProblemConfig().Cost
	w := []float64{1, 1}
	lm := Placement{{Thread: 0, Instr: 0, Kind: KindLmfence, Addr: guarded, AddrKnown: true}}
	mf := Placement{{Thread: 0, Instr: 0, Kind: KindMfence}}

	lmCost := placementCost(lm, progs, cm, w)
	mfCost := placementCost(mf, progs, cm, w)
	if lmCost != 457 { // 7 local + 3 remote stores × 150
		t.Errorf("l-mfence cost = %v, want 457", lmCost)
	}
	if mfCost != 70 {
		t.Errorf("mfence cost = %v, want 70", mfCost)
	}
	if lmCost <= mfCost {
		t.Errorf("ranking did not flip: l-mfence %v must exceed mfence %v against a store-only remote thread", lmCost, mfCost)
	}
}

// TestResolvedIndexedStoreFlipsCostRanking is the indexed variant of the
// same undercount: a remote StoreIdx whose index register is pinned by a
// single loadi statically targets the guarded location and must be
// charged a round trip.
func TestResolvedIndexedStoreFlipsCostRanking(t *testing.T) {
	guarded := programs.AddrX
	base := arch.Addr(2)
	t0 := tso.NewBuilder("primary").StoreI(guarded, 1).Halt().Build()
	t1 := tso.NewBuilder("remote-idx-writer").
		LoadI(1, arch.Word(guarded-base)).
		StoreIdx(base, 1, 2).
		Halt().Build()
	progs := []*tso.Program{t0, t1}

	cm := ProblemConfig().Cost
	w := []float64{1, 1}
	lm := Placement{{Thread: 0, Instr: 0, Kind: KindLmfence, Addr: guarded, AddrKnown: true}}
	mf := Placement{{Thread: 0, Instr: 0, Kind: KindMfence}}

	lmCost := placementCost(lm, progs, cm, w)
	if lmCost != 157 { // 7 local + 1 resolved indexed store × 150
		t.Errorf("l-mfence cost = %v, want 157", lmCost)
	}
	if mfCost := placementCost(mf, progs, cm, w); lmCost <= mfCost {
		t.Errorf("ranking did not flip on a resolved indexed remote store (%v vs %v)", lmCost, mfCost)
	}
}

// TestRegConsts pins the conservative constant propagation behind the
// cost model's remote-touch count: a register is known only when never
// written or written by loadi of a single immediate; everything else
// kills resolution.
func TestRegConsts(t *testing.T) {
	prog := tso.NewBuilder("consts").
		LoadI(1, 3).
		LoadI(1, 3). // same immediate twice: still known
		LoadI(2, 1).
		LoadI(2, 2).             // conflicting immediates: unknown
		Load(3, programs.AddrX). // memory load: unknown
		AddI(4, 1, 1).           // arithmetic: unknown
		Halt().Build()
	val, known := regConsts(prog)
	if !known[1] || val[1] != 3 {
		t.Errorf("r1: known=%v val=%v, want known constant 3", known[1], val[1])
	}
	for _, r := range []tso.Reg{2, 3, 4} {
		if known[r] {
			t.Errorf("r%d: marked known, want unknown", r)
		}
	}
	// r5 is never written: known zero.
	if !known[5] || val[5] != 0 {
		t.Errorf("r5: known=%v val=%v, want known constant 0", known[5], val[5])
	}
}
