package programs

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/tso"
)

func TestDekkerVariantStrings(t *testing.T) {
	for v, want := range map[DekkerVariant]string{
		DekkerNoFence: "nofence", DekkerMfence: "mfence",
		DekkerLmfence: "lmfence", DekkerLmfenceMirrored: "lmfence-mirrored",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

func opCount(p *tso.Program, op tso.Op) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestDekkerPairFenceShapes(t *testing.T) {
	// nofence: no fence ops anywhere.
	p0, p1 := DekkerPair(DekkerNoFence)
	for _, p := range []*tso.Program{p0, p1} {
		if opCount(p, tso.OpMfence)+opCount(p, tso.OpLE) != 0 {
			t.Errorf("%s: unexpected fence ops", p.Name)
		}
	}
	// mfence: one mfence each, no LE.
	p0, p1 = DekkerPair(DekkerMfence)
	for _, p := range []*tso.Program{p0, p1} {
		if opCount(p, tso.OpMfence) != 1 || opCount(p, tso.OpLE) != 0 {
			t.Errorf("%s: wrong fence shape", p.Name)
		}
	}
	// lmfence: primary has the LE/ST quadruple, secondary an mfence.
	p0, p1 = DekkerPair(DekkerLmfence)
	if opCount(p0, tso.OpLE) != 1 || opCount(p0, tso.OpLinkBegin) != 1 ||
		opCount(p0, tso.OpStoreLinked) != 1 || opCount(p0, tso.OpLinkBranch) != 1 {
		t.Errorf("primary missing the Fig. 3(b) translation: %v", p0.Instrs)
	}
	if opCount(p0, tso.OpMfence) != 0 {
		t.Error("primary carries a program-based fence")
	}
	if opCount(p1, tso.OpMfence) != 1 || opCount(p1, tso.OpLE) != 0 {
		t.Error("secondary fence shape wrong")
	}
	// mirrored: both carry the LE/ST quadruple.
	p0, p1 = DekkerPair(DekkerLmfenceMirrored)
	for _, p := range []*tso.Program{p0, p1} {
		if opCount(p, tso.OpLE) != 1 {
			t.Errorf("%s: mirrored variant missing LE", p.Name)
		}
	}
}

func TestDekkerLoopRuns(t *testing.T) {
	for _, v := range []DekkerVariant{DekkerNoFence, DekkerMfence, DekkerLmfence} {
		cfg := arch.DefaultConfig()
		m := tso.NewMachine(cfg, DekkerLoop(v, 50, 2))
		if _, err := tso.NewRunner(m).RunProc(0); err != nil {
			t.Errorf("%v: %v", v, err)
		}
		// The release store must have completed 50 times; final flag 0.
		if got := m.Mem(AddrL1); got != 0 {
			t.Errorf("%v: final L1 = %d", v, got)
		}
	}
}

func TestRoundTripProgramsInterlock(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := tso.NewMachine(cfg, RoundTripPrimary(20), RoundTripSecondary(20))
	if _, err := tso.NewRunner(m).Run(); err != nil {
		t.Fatal(err)
	}
	if m.Procs[0].Stats.LinkFences != 20 {
		t.Errorf("primary armed %d links, want 20", m.Procs[0].Stats.LinkFences)
	}
	if m.Procs[1].Stats.Loads != 20 {
		t.Errorf("secondary performed %d loads, want 20", m.Procs[1].Stats.Loads)
	}
	if m.Procs[0].Stats.LinkBreaks == 0 {
		t.Error("no links broken in the contended round-trip benchmark")
	}
}

func TestLmfenceTraceAnnotations(t *testing.T) {
	p := LmfenceTrace()
	found := 0
	for _, in := range p.Instrs {
		if strings.Contains(in.Note, "K1.") {
			found++
		}
	}
	if found != 4 {
		t.Errorf("Fig. 3(b) notes on %d instructions, want 4", found)
	}
}

func TestLitmusBuildersProduceHaltingPrograms(t *testing.T) {
	p0, p1 := LoadLoadPair()
	for _, p := range []*tso.Program{p0, p1} {
		if opCount(p, tso.OpHalt) == 0 {
			t.Errorf("load-load/%s: program does not halt", p.Name)
		}
	}
}
