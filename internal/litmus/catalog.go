package litmus

import (
	"fmt"
	"slices"
	"sync"

	"repro/examples"
	"repro/internal/arch"
	"repro/internal/litmuslang/syntax"
	"repro/internal/tso"
)

// CatalogTest is one named litmus test with its expected classification
// under the TSO/PO ordering principles of Section 2. The relation
// between the four principles and the tests:
//
//	Principle 1 (R-R kept in order)      — MP's reader, CoRR
//	Principle 2 (W not before older R)   — LB
//	Principle 3 (W-W kept in order)      — MP's writer, 2+2W
//	Principle 4 (R may pass older W)     — SB (the one *allowed* relaxation)
//
// plus the store-atomicity TSO adds on top (writes reach the coherent
// cache in one global order) — IRIW.
//
// Each entry is read from one embedded examples/*.litmus file: its
// threads and config give the programs and the machine, and its two
// expect lines give the relaxed outcome and whether TSO and PSO allow
// it.
type CatalogTest struct {
	Name string
	// File is the base name of the examples/*.litmus source.
	File string
	// Config is the machine the source declares.
	Config arch.Config
	// Build returns the programs, one per processor.
	Build func() []*tso.Program
	// Relaxed reports whether an outcome is the "relaxed" one the test
	// probes for.
	Relaxed func(Outcome) bool

	allowedTSO, allowedPSO bool
}

// Allowed reports the expected classification of the relaxed outcome
// under the given memory model. SC allows none: every catalog shape
// probes an outcome no interleaving of whole instructions reaches.
func (t CatalogTest) Allowed(model arch.MemModel) bool {
	switch model {
	case arch.PSO:
		return t.allowedPSO
	case arch.SC:
		return false
	}
	return t.allowedTSO
}

// catalogFiles lists the catalog's sources in report order, SB first.
var catalogFiles = []string{
	"sb.litmus", "sb+mfence.litmus", "sb+lmfence.litmus", "mp.litmus", "lb.litmus",
	"2+2w.litmus", "corr.litmus", "wrc.litmus", "rwc.litmus", "iriw.litmus",
}

var loadCatalog = sync.OnceValue(func() []CatalogTest {
	cat := make([]CatalogTest, len(catalogFiles))
	for i, file := range catalogFiles {
		ct, err := readCatalogTest(file)
		if err != nil {
			panic(err) // the sources are compiled in; the catalog tests catch this
		}
		cat[i] = ct
	}
	return cat
})

// Catalog returns the litmus-test suite.
func Catalog() []CatalogTest { return slices.Clone(loadCatalog()) }

// CatalogEntry returns the catalog test with the given name. It panics
// on a name the catalog lacks.
func CatalogEntry(name string) CatalogTest {
	for _, ct := range loadCatalog() {
		if ct.Name == name {
			return ct
		}
	}
	panic(fmt.Sprintf("litmus: no catalog test %q", name))
}

// readCatalogTest lowers one embedded source into a catalog entry.
func readCatalogTest(file string) (CatalogTest, error) {
	src, err := examples.Litmus.ReadFile(file)
	if err != nil {
		return CatalogTest{}, err
	}
	u, err := syntax.LowerSource(string(src))
	if err != nil {
		return CatalogTest{}, fmt.Errorf("litmus: catalog source %s: %w", file, err)
	}
	// The parser allows one line per model and one outcome per file, so
	// two lines are one for each model.
	if len(u.Expect) != 2 {
		return CatalogTest{}, fmt.Errorf("litmus: catalog source %s needs an expect line for tso and for pso", file)
	}
	ct := CatalogTest{
		Name:   u.Name,
		File:   file,
		Config: u.Config,
		Build:  func() []*tso.Program { return slices.Clone(u.Programs) },
	}
	for _, e := range u.Expect {
		if e.Model == arch.PSO {
			ct.allowedPSO = e.Allow
		} else {
			ct.allowedTSO = e.Allow
		}
	}
	outcome := u.Expect[0].Outcome
	toks := make([]string, len(outcome))
	for i, c := range outcome {
		if !slices.Contains(OutcomeRegs, c.Reg) {
			return CatalogTest{}, fmt.Errorf("litmus: catalog source %s: outcomes do not record the register of %s", file, c)
		}
		toks[i] = fmt.Sprintf("r%d=%d", c.Reg, int64(c.Val))
	}
	ct.Relaxed = func(o Outcome) bool {
		for i, c := range outcome {
			if !o.Has(c.Proc, toks[i]) {
				return false
			}
		}
		return true
	}
	return ct, nil
}

// RunCatalogTestOpts explores one catalog entry with the given options,
// under the model its Config names, and reports whether the machine
// classified it as expected. The classification check does not depend
// on Options.Reduction: partial-order reduction preserves the outcome
// set.
func RunCatalogTestOpts(t CatalogTest, opts Options) (Result, error) {
	progs := t.Build()
	build := func() *tso.Machine { return tso.NewMachine(t.Config, progs...) }
	res := Explore(build, opts)
	if res.Truncated {
		return res, fmt.Errorf("litmus: %s truncated at %d states", t.Name, res.States)
	}
	if res.Deadlocks > 0 {
		return res, fmt.Errorf("litmus: %s deadlocked %d times", t.Name, res.Deadlocks)
	}
	reached := res.CountOutcomes(t.Relaxed) > 0
	if want := t.Allowed(t.Config.Model); reached != want {
		return res, fmt.Errorf("litmus: %s relaxed outcome reachable=%v under %s, want %v",
			t.Name, reached, t.Config.Model, want)
	}
	return res, nil
}
