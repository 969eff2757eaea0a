package tso_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// walkOrbits explores sp's state space the way the model checker does
// under symmetry — one state kept per canonical representative,
// successors taken from the live machine — and calls visit on every
// state it reaches, the kept ones and the duplicates alike, until the
// space closes or limit states are kept (0: no limit). It returns the
// number kept. The machine passed to visit is recycled after the call.
func walkOrbits(sp *programs.SymProtocol, limit int, visit func(m *tso.Machine)) int {
	return walkStates(sp, true, limit, visit)
}

// walkStates is walkOrbits with the symmetry optional: without it every
// state is its own representative. Representatives are told apart by
// the hash pair of their full Fingerprint, so the walk never touches a
// machine's state-key cache: visit sees a child exactly as CopyFrom from
// its (visited) parent and one step left it.
func walkStates(sp *programs.SymProtocol, sym bool, limit int, visit func(m *tso.Machine)) int {
	var canon *tso.Canonicalizer
	if sym {
		canon = tso.NewCanonicalizer(sp.Sym, sp.Build())
	}
	seen := make(map[[2]uint64]bool)
	var fp []byte
	var free, stack []*tso.Machine
	// try claims m's orbit, keeping m on the stack when it is new.
	try := func(m *tso.Machine) {
		visit(m)
		cm := m
		if canon != nil {
			cm, _ = canon.Canonicalize(m)
		}
		fp = cm.Fingerprint(fp[:0])
		h1, h2 := tso.HashPair(fp)
		if seen[[2]uint64{h1, h2}] {
			free = append(free, m)
			return
		}
		seen[[2]uint64{h1, h2}] = true
		stack = append(stack, m)
	}
	child := func(m *tso.Machine) *tso.Machine {
		if len(free) == 0 {
			return m.Clone()
		}
		c := free[len(free)-1]
		free = free[:len(free)-1]
		c.CopyFrom(m)
		return c
	}
	try(sp.Build())
	for len(stack) > 0 && (limit == 0 || len(seen) < limit) {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := range m.Procs {
			p := arch.ProcID(i)
			if m.CanExec(p) {
				c := child(m)
				c.ExecStep(p)
				try(c)
			}
			if m.CanDrain(p) {
				c := child(m)
				c.DrainStep(p)
				try(c)
			}
		}
		free = append(free, m)
	}
	return len(seen)
}

// depth2 returns sp with the two-entry store buffers the benchmark's
// exploration workloads use.
func depth2(sp *programs.SymProtocol) *programs.SymProtocol {
	sp.Cfg.StoreBufferDepth = 2
	return sp
}

// TestCanonicalizeTwoStageMatchesReference: comparing rotations on signature
// heads and building tails only on a head tie must choose exactly the
// rotation that comparing whole signatures chooses, and so produce a
// byte-identical representative. Checked on every state the quotient
// exploration of the 2-process generators reaches, in all three fence
// disciplines, and of peterson3 and bakery3 (about 480 k and 500 k
// orbits; cut to the first 40 k under -short).
func TestCanonicalizeTwoStageMatchesReference(t *testing.T) {
	var sps []*programs.SymProtocol
	for _, v := range []programs.DekkerVariant{programs.DekkerNoFence, programs.DekkerMfence, programs.DekkerLmfence} {
		sps = append(sps, programs.BakeryN(2, v), programs.PetersonN(2, v))
	}
	sps = append(sps, programs.PetersonN(3, programs.DekkerMfence), programs.BakeryN(3, programs.DekkerMfence))
	for _, sp := range sps {
		sp := depth2(sp)
		t.Run(sp.Name, func(t *testing.T) {
			limit := 0
			if testing.Short() && len(sp.Progs) > 2 {
				limit = 40_000
			}
			canon := tso.NewCanonicalizer(sp.Sym, sp.Build())
			ref := tso.NewCanonicalizer(sp.Sym, sp.Build())
			var fp, refFP []byte
			checked, rotated, mismatches := 0, 0, 0
			orbits := walkOrbits(sp, limit, func(m *tso.Machine) {
				want := ref.ReferenceRotation(m)
				cm, slot := canon.Canonicalize(m)
				got := 0
				if slot != nil {
					// Ring member 0 lands in member r's slot.
					for got = 1; slot[sp.Sym.Procs[0]] != int(sp.Sym.Procs[got]); got++ {
					}
				}
				fp = cm.Fingerprint(fp[:0])
				refFP = ref.ApplyRotation(m, want).Fingerprint(refFP[:0])
				checked++
				if got != 0 {
					rotated++
				}
				if got != want || !bytes.Equal(fp, refFP) {
					if mismatches++; mismatches <= 3 {
						t.Errorf("state %d: two-stage signatures chose rotation %d, whole signatures %d", checked, got, want)
					}
				}
			})
			t.Logf("%d orbits, %d states canonicalized, %d rotated, %d rotation mismatches", orbits, checked, rotated, mismatches)
			if rotated == 0 {
				t.Error("no state was rotated: the test compared nothing")
			}
		})
	}
}

// swapRegs returns sp with registers a and b exchanged in every
// program and in the symmetry's pid-register list: the same protocol,
// so the same state space, with its values in other registers.
func swapRegs(sp *programs.SymProtocol, a, b tso.Reg) *programs.SymProtocol {
	sw := func(r tso.Reg) tso.Reg {
		switch r {
		case a:
			return b
		case b:
			return a
		}
		return r
	}
	out := *sp
	out.Name = fmt.Sprintf("%s-r%d-r%d", sp.Name, a, b)
	out.Progs = make([]*tso.Program, len(sp.Progs))
	for i, p := range sp.Progs {
		q := &tso.Program{Name: p.Name, Instrs: append([]tso.Instr(nil), p.Instrs...)}
		for j := range q.Instrs {
			in := &q.Instrs[j]
			in.Rd, in.Ra, in.Rb = sw(in.Rd), sw(in.Ra), sw(in.Rb)
		}
		out.Progs[i] = q
	}
	sym := *sp.Sym
	sym.PidRegs = nil
	for _, r := range sp.Sym.PidRegs {
		sym.PidRegs = append(sym.PidRegs, sw(r))
	}
	out.Sym = &sym
	return &out
}

// TestChooseMatchesAllHeadsReference: Choose, which compares members by
// head prefixes and builds a head only on a prefix tie, must choose the
// rotation that comparing whole signatures built up front chooses
// (ReferenceRotation). Checked on the symmetric instances at their
// declared four-entry store buffers, the 2-process ones exhaustively and
// the 3-process ones for their first 40,000 orbits (bakery3 and
// peterson3 without fences or with l-mfence exceed 1.9 M orbits; 8,000
// under -short), and on 3-process copies whose first register is a pid
// register, so a prefix that drops the normalization of pid values
// shows. Some checked states must have members whose prefixes tie.
func TestChooseMatchesAllHeadsReference(t *testing.T) {
	var sps []*programs.SymProtocol
	for n := 2; n <= 3; n++ {
		for _, v := range []programs.DekkerVariant{programs.DekkerNoFence, programs.DekkerMfence, programs.DekkerLmfence} {
			sps = append(sps, programs.BakeryN(n, v), programs.PetersonN(n, v))
		}
	}
	for _, v := range []programs.DekkerVariant{programs.DekkerNoFence, programs.DekkerLmfence} {
		sps = append(sps, swapRegs(programs.PetersonN(3, v), 0, 4))
	}
	for _, sp := range sps {
		t.Run(sp.Name, func(t *testing.T) {
			limit := 0
			if len(sp.Progs) > 2 {
				limit = 40_000
				if testing.Short() {
					limit = 8_000
				}
			}
			canon := tso.NewCanonicalizer(sp.Sym, sp.Build())
			ref := tso.NewCanonicalizer(sp.Sym, sp.Build())
			n := len(sp.Sym.Procs)
			checked, ties, mismatches := 0, 0, 0
			walkOrbits(sp, limit, func(m *tso.Machine) {
				checked++
				tie := false
				for a := 0; a < n; a++ {
					for b := a + 1; b < n; b++ {
						tie = tie || canon.HeadPrefix(m, a) == canon.HeadPrefix(m, b)
					}
				}
				if tie {
					ties++
				}
				if got, want := canon.Choose(m), ref.ReferenceRotation(m); got != want {
					if mismatches++; mismatches <= 3 {
						t.Errorf("state %d: Choose chose rotation %d, whole signatures %d", checked, got, want)
					}
				}
			})
			t.Logf("%d states, %d with a prefix tie, %d mismatches", checked, ties, mismatches)
			if ties == 0 {
				t.Error("no state had tied prefixes: the heads were never consulted")
			}
		})
	}
}

// TestValidateRefusesBlockOverWordZero: an unset LEAddr holds 0 and a
// renaming moves LEAddr as an address, so a block covering word 0 would
// rename unset into set and merge nothing. Validate must refuse such a
// block at any stride, and still accept the ring one word higher.
func TestValidateRefusesBlockOverWordZero(t *testing.T) {
	prog := tso.NewBuilder("halt").Halt().Build()
	progs := []*tso.Program{prog, prog, prog}
	ring := []arch.ProcID{0, 1, 2}
	for _, b := range []tso.SymBlock{{Base: 0, Stride: 1}, {Base: 0, Stride: 4}} {
		sym := &tso.Symmetry{Procs: ring, Blocks: []tso.SymBlock{{Base: 9, Stride: 1}, b}}
		err := sym.Validate(progs, 16)
		if err == nil || !strings.Contains(err.Error(), "word 0") {
			t.Errorf("block %+v: Validate = %v, want a refusal naming word 0", b, err)
		}
	}
	sym := &tso.Symmetry{Procs: ring, Blocks: []tso.SymBlock{{Base: 1, Stride: 1}}}
	if err := sym.Validate(progs, 16); err != nil {
		t.Errorf("block from word 1: Validate = %v, want nil", err)
	}
}

var canonSink int

// BenchmarkCanonicalize times Canonicalize over a kept walk of peterson3
// states (the first 20,000 the quotient exploration canonicalizes).
func BenchmarkCanonicalize(b *testing.B) {
	sp := depth2(programs.PetersonN(3, programs.DekkerMfence))
	var states []*tso.Machine
	walkOrbits(sp, 8_000, func(m *tso.Machine) {
		if len(states) < 20_000 {
			states = append(states, m.Clone())
		}
	})
	canon := tso.NewCanonicalizer(sp.Sym, sp.Build())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm, _ := canon.Canonicalize(states[i%len(states)])
		canonSink += len(cm.Procs)
	}
}

// definitionKey is the collapsed key of m's canonical representative by
// definition: the representative built on ref's scratch machine, every
// component of it encoded and interned.
func definitionKey(ref *tso.Canonicalizer, col *tso.Collapser, m *tso.Machine, dst []byte, scratch *[]byte) []byte {
	cm, _ := ref.Canonicalize(m)
	return col.Collapse(cm, dst[:0], scratch)
}

// TestCanonicalKeyMatchesDefinition: the key CollapsedKey assembles by
// sending m's own component ids through the learned per-rotation id maps
// is, byte for byte, Collapse(Canonicalize(m)) interned into the same
// Collapser. Checked on every key the quotient exploration takes — kept
// states and duplicates alike, each machine CopyFrom'd from a keyed
// parent and stepped once, as the engine leaves it — of peterson3 with
// two-entry buffers (1,444,528 keys) and of bakery3 under mfence and
// under l-mfence; the bakery spaces stop at 60,000 orbits under -short.
// internal/litmus repeats it through the engine's own key routine with
// the partial-order reducer steering the walk.
func TestCanonicalKeyMatchesDefinition(t *testing.T) {
	for _, sp := range []*programs.SymProtocol{
		programs.PetersonN(3, programs.DekkerMfence),
		programs.BakeryN(3, programs.DekkerMfence),
		programs.BakeryN(3, programs.DekkerLmfence),
	} {
		sp := depth2(sp)
		t.Run(sp.Name, func(t *testing.T) {
			limit := 0
			if testing.Short() {
				limit = 60_000
			}
			col := tso.NewCollapser()
			canon := tso.NewCanonicalizer(sp.Sym, sp.Build())
			ref := tso.NewCanonicalizer(sp.Sym, sp.Build())
			var got, want, scratch []byte
			compared, mismatches := 0, 0
			orbits := walkOrbits(sp, limit, func(m *tso.Machine) {
				got, _ = canon.CollapsedKey(col, m, got[:0], &scratch)
				want = definitionKey(ref, col, m, want, &scratch)
				compared++
				if !bytes.Equal(got, want) {
					if mismatches++; mismatches <= 3 {
						t.Errorf("key %d: mapped %x, definition %x", compared, got, want)
					}
				}
			})
			rotated, misses := canon.KeyStats()
			t.Logf("%d orbits, %d keys compared, %d mismatches; %d rotated, %d of them built the representative (map misses)",
				orbits, compared, mismatches, rotated, misses)
			if rotated == 0 || misses == 0 || misses*10 > rotated {
				t.Errorf("%d rotated keys, %d map misses: the maps were not what answered", rotated, misses)
			}
		})
	}
}

// TestCanonicalKeyMapIsChecked shows the differential above bites and the
// learn-from-definition rule refuses what it cannot reconcile: with one
// recorded (id, renamed id) pair perturbed, a state that uses the pair
// gets a key that differs from the definition's; and when such a state is
// then sent back down the definition (another of its pairs forgotten),
// the pair it produces contradicts the record and CollapsedKey panics.
func TestCanonicalKeyMapIsChecked(t *testing.T) {
	sp := depth2(programs.PetersonN(3, programs.DekkerMfence))
	col := tso.NewCollapser()
	canon := tso.NewCanonicalizer(sp.Sym, sp.Build())
	ref := tso.NewCanonicalizer(sp.Sym, sp.Build())
	var got, want, scratch []byte
	var rotated *tso.Machine
	walkOrbits(sp, 2_000, func(m *tso.Machine) {
		got, _ = canon.CollapsedKey(col, m, got[:0], &scratch)
		if canon.Choose(m) != 0 {
			rotated = m.Clone()
		}
	})
	if rotated == nil {
		t.Fatal("no rotated state in the first 2,000 orbits")
	}
	same := func() bool {
		got, _ = canon.CollapsedKey(col, rotated, got[:0], &scratch)
		want = definitionKey(ref, col, rotated, want, &scratch)
		return bytes.Equal(got, want)
	}
	_, before := canon.KeyStats()
	if !same() {
		t.Fatalf("unperturbed: mapped %x, definition %x", got, want)
	}
	if _, after := canon.KeyStats(); after != before {
		t.Fatal("the kept state missed the maps: the perturbation below would go unread")
	}
	// The state's own tuple holds the ids the maps are indexed by: core 0
	// first, memory last before the CS byte.
	own := col.Collapse(rotated, nil, &scratch)
	core0 := binary.LittleEndian.Uint32(own)
	mem := binary.LittleEndian.Uint32(own[len(own)-5:])
	maps := canon.IDMaps(canon.Choose(rotated))
	maps[3][mem]++
	if same() {
		t.Error("a perturbed memory pair left the mapped key equal to the definition's: the differential compares too little")
	}
	maps[0][core0] = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a definition result contradicting a recorded pair did not panic")
			}
		}()
		same()
	}()
}
