package litmus

import (
	"io/fs"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/examples"
	"repro/internal/arch"
	"repro/internal/tso"
)

func TestCatalogClassifications(t *testing.T) {
	for _, ct := range Catalog() {
		t.Run(ct.Name, func(t *testing.T) {
			res, err := RunCatalogTestOpts(ct, Options{})
			if err != nil {
				for _, o := range res.SortedOutcomes() {
					t.Logf("outcome: %s", o)
				}
				t.Error(err)
			}
			if res.States < 4 {
				t.Errorf("suspiciously small exploration: %d states", res.States)
			}
		})
	}
}

func TestCatalogHasTheCanonicalTests(t *testing.T) {
	names := map[string]bool{}
	for _, ct := range Catalog() {
		names[ct.Name] = true
		if ct.File == "" {
			t.Errorf("%s: no source file", ct.Name)
		} else if _, err := fs.Stat(examples.Litmus, ct.File); err != nil {
			t.Errorf("%s: source not embedded: %v", ct.Name, err)
		}
	}
	for _, want := range []string{"SB", "SB+mfence", "SB+lmfence", "MP", "LB", "2+2W", "CoRR", "IRIW", "WRC", "RWC"} {
		if !names[want] {
			t.Errorf("catalog missing %s", want)
		}
	}
}

// --- Differential testing against the sequential-consistency model ----

// randomProgram generates a small straight-line program of stores,
// loads, and optionally fences over a few shared locations.
func randomProgram(rng *rand.Rand, name string, instrs int, fenceEveryStore bool) *tso.Program {
	b := tso.NewBuilder(name)
	reg := tso.Reg(0)
	for i := 0; i < instrs; i++ {
		addr := arch.Addr(rng.Intn(3))
		switch rng.Intn(2) {
		case 0:
			b.StoreI(addr, arch.Word(1+rng.Intn(3)))
			if fenceEveryStore {
				b.Mfence()
			}
		case 1:
			b.Load(reg, addr)
			reg = (reg + 1) % 4
		}
	}
	b.Halt()
	return b.Build()
}

// outcomesOf explores and returns the outcome set as a map.
func outcomesOf(progs []*tso.Program, model arch.MemModel) map[Outcome]bool {
	cfg := arch.DefaultConfig()
	cfg.Procs = len(progs)
	cfg.MemWords = 8
	cfg.StoreBufferDepth = 3
	cfg.Model = model
	res := Explore(func() *tso.Machine { return tso.NewMachine(cfg, progs...) },
		Options{MaxStates: 400_000})
	out := make(map[Outcome]bool, len(res.Outcomes))
	if res.Truncated || res.Deadlocks > 0 {
		return nil
	}
	for o := range res.Outcomes {
		out[o] = true
	}
	return out
}

// Property: every SC outcome is also a TSO outcome (TSO only adds
// behaviours, never removes them).
func TestQuickTSOContainsSC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		progs := []*tso.Program{
			randomProgram(rng, "p0", 2+rng.Intn(3), false),
			randomProgram(rng, "p1", 2+rng.Intn(3), false),
		}
		tsoOut := outcomesOf(progs, arch.TSO)
		scOut := outcomesOf(progs, arch.SC)
		if tsoOut == nil || scOut == nil {
			return true // truncated; skip
		}
		for o := range scOut {
			if !tsoOut[o] {
				t.Logf("seed %d: SC outcome %s missing under TSO", seed, o)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: with an mfence after every store, the TSO machine exhibits
// exactly the SC outcomes — fences fully restore sequential consistency
// for these programs.
func TestQuickFencedTSOEqualsSC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n0, n1 := 2+rng.Intn(3), 2+rng.Intn(3)
		// Build the fenced and unfenced variants from the same RNG
		// stream by regenerating with the same seed.
		rngA := rand.New(rand.NewSource(seed))
		fenced := []*tso.Program{
			randomProgram(rngA, "p0", n0, true),
			randomProgram(rngA, "p1", n1, true),
		}
		rngB := rand.New(rand.NewSource(seed))
		plain := []*tso.Program{
			randomProgram(rngB, "p0", n0, false),
			randomProgram(rngB, "p1", n1, false),
		}
		fencedTSO := outcomesOf(fenced, arch.TSO)
		plainSC := outcomesOf(plain, arch.SC)
		if fencedTSO == nil || plainSC == nil {
			return true
		}
		return reflect.DeepEqual(fencedTSO, plainSC)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// SC mode must forbid the SB relaxation that TSO allows.
func TestSCForbidsStoreBuffering(t *testing.T) {
	x, y := arch.Addr(0), arch.Addr(1)
	progs := []*tso.Program{
		tso.NewBuilder("sb0").StoreI(x, 1).Load(0, y).Halt().Build(),
		tso.NewBuilder("sb1").StoreI(y, 1).Load(0, x).Halt().Build(),
	}
	sc := outcomesOf(progs, arch.SC)
	for o := range sc {
		if o.Has(0, "r0=0") && o.Has(1, "r0=0") {
			t.Fatalf("SC model admits the SB relaxation: %s", o)
		}
	}
	tsoOut := outcomesOf(progs, arch.TSO)
	found := false
	for o := range tsoOut {
		if o.Has(0, "r0=0") && o.Has(1, "r0=0") {
			found = true
		}
	}
	if !found {
		t.Error("TSO model lost the SB relaxation")
	}
}
