package litmuslang_test

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/litmus"
	"repro/internal/litmuslang"
	"repro/internal/programs"
	"repro/internal/tso"
)

// corpus gathers every program the repository's catalogs can produce,
// keyed by a test name.
func corpus() map[string][]*tso.Program {
	m := make(map[string][]*tso.Program)
	pair := func(a, b *tso.Program) []*tso.Program { return []*tso.Program{a, b} }

	for _, ct := range litmus.Catalog() {
		m["catalog/"+ct.Name] = ct.Build()
	}

	variants := []programs.DekkerVariant{
		programs.DekkerNoFence, programs.DekkerMfence,
		programs.DekkerLmfence, programs.DekkerLmfenceMirrored,
	}
	for _, v := range variants {
		m["dekker/"+v.String()] = pair(programs.DekkerPair(v))
		m["peterson/"+v.String()] = pair(programs.PetersonPair(v))
		m["bakery/"+v.String()] = pair(programs.BakeryPair(v))
		m["dekkerloop/"+v.String()] = []*tso.Program{programs.DekkerLoop(v, 2, 1)}
	}

	// The catalog's SB and MP come from .litmus sources; these rows keep
	// the same shapes as Builder output in the round trip, l-mfence
	// expanded by Builder.Lmfence.
	x, y, obs := programs.AddrX, programs.AddrY, programs.RegObs
	m["sb"] = pair(
		tso.NewBuilder("sb-p0").StoreI(x, 1).Load(obs, y).Halt().Build(),
		tso.NewBuilder("sb-p1").StoreI(y, 1).Load(obs, x).Halt().Build())
	m["sb+mfence"] = pair(
		tso.NewBuilder("sb-f-p0").StoreI(x, 1).Mfence().Load(obs, y).Halt().Build(),
		tso.NewBuilder("sb-f-p1").StoreI(y, 1).Mfence().Load(obs, x).Halt().Build())
	m["sb+lmfence"] = pair(
		tso.NewBuilder("sb-lm-p0").Lmfence(x, 1, programs.RegScratch).Load(obs, y).Halt().Build(),
		tso.NewBuilder("sb-lm-p1").StoreI(y, 1).Mfence().Load(obs, x).Halt().Build())
	m["mp"] = pair(
		tso.NewBuilder("mp-p0").StoreI(x, 1).StoreI(y, 1).Halt().Build(),
		tso.NewBuilder("mp-p1").Load(1, y).Load(2, x).Halt().Build())
	m["loadload"] = pair(programs.LoadLoadPair())
	m["lmfence-trace"] = []*tso.Program{programs.LmfenceTrace()}
	m["roundtrip"] = []*tso.Program{programs.RoundTripPrimary(2), programs.RoundTripSecondary(2)}

	for n := 2; n <= 3; n++ {
		m[fmt.Sprintf("bakeryN/%d", n)] = programs.BakeryN(n, programs.DekkerMfence).Progs
		m[fmt.Sprintf("petersonN/%d", n)] = programs.PetersonN(n, programs.DekkerMfence).Progs
	}
	return m
}

// recompile runs one program through Disasm and back through the
// parser/compiler.
func recompile(t *testing.T, p *tso.Program) *tso.Program {
	t.Helper()
	src := "thread " + strconv.Quote(p.Name) + " {\n" + p.Disasm() + "}\n"
	c, err := litmuslang.CompileSource(src)
	if err != nil {
		t.Fatalf("compile(disasm(%s)): %v\nsource:\n%s", p.Name, err, src)
	}
	return c.Programs[0]
}

// TestDisasmRoundTripsCatalog is the property test the DSL is built
// around: for every program in the repository's catalogs,
// compile(disasm(p)) reproduces p exactly — opcode, operands, resolved
// branch targets, and trace notes.
func TestDisasmRoundTripsCatalog(t *testing.T) {
	for name, progs := range corpus() {
		t.Run(name, func(t *testing.T) {
			for _, p := range progs {
				got := recompile(t, p)
				if got.Name != p.Name {
					t.Errorf("%s: name %q != %q", name, got.Name, p.Name)
				}
				if !reflect.DeepEqual(got.Instrs, p.Instrs) {
					t.Errorf("%s/%s: instruction mismatch\n got %v\nwant %v\ndisasm:\n%s",
						name, p.Name, got.Instrs, p.Instrs, p.Disasm())
				}
			}
		})
	}
}

// TestDisasmInstrMatchesString pins DisasmInstr to the Instr.String
// dialect for everything except branches (String prints raw target
// indices where the DSL needs labels).
func TestDisasmInstrMatchesString(t *testing.T) {
	prog := tso.NewBuilder("x").
		Nop().LoadI(1, -3).Load(2, 9).LoadIdx(3, 4, 5).LE(7, 0).
		Store(9, 1).StoreI(9, 2).StoreIdx(4, 5, 6).
		StoreLinked(1, 2).StoreLinkedReg(1, 2).LinkBegin(1).LinkBranch().
		Add(1, 2, 3).Sub(1, 2, 3).AddI(1, 2, 3).
		Mfence().CSEnter().CSExit().Halt().
		Build()
	for _, in := range prog.Instrs {
		switch in.Op {
		case tso.OpBeq, tso.OpBne, tso.OpBlt, tso.OpJmp:
			continue
		}
		if got, want := tso.DisasmInstr(in), in.String(); got != want {
			t.Errorf("DisasmInstr(%v) = %q, want %q", in.Op, got, want)
		}
	}
}
