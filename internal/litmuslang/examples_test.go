package litmuslang_test

import (
	"io/fs"
	"reflect"
	"sort"
	"testing"

	"repro/examples"
	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmuslang"
	"repro/internal/programs"
	"repro/internal/tso"
)

// exampleCase ties one checked-in protocol .litmus file to the
// hand-built internal/programs pair it must agree with.
type exampleCase struct {
	file  string
	build func() []*tso.Program
	// violates is the expected mutual-exclusion verdict: true means a
	// violation is reachable under TSO.
	violates bool
}

// exampleCases lists the protocol files (Dekker, Peterson, bakery)
// against their hand-built internal/programs pairs. The catalog files
// have no hand-built twin: they are the catalog's only source.
func exampleCases() []exampleCase {
	var cases []exampleCase
	pair := func(a, b *tso.Program) []*tso.Program { return []*tso.Program{a, b} }
	for _, v := range []programs.DekkerVariant{
		programs.DekkerNoFence, programs.DekkerMfence,
		programs.DekkerLmfence, programs.DekkerLmfenceMirrored,
	} {
		v := v
		cases = append(cases, exampleCase{
			file:     "dekker-" + v.String() + ".litmus",
			build:    func() []*tso.Program { return pair(programs.DekkerPair(v)) },
			violates: v == programs.DekkerNoFence,
		})
	}
	for _, v := range []programs.DekkerVariant{
		programs.DekkerNoFence, programs.DekkerMfence, programs.DekkerLmfence,
	} {
		v := v
		cases = append(cases,
			exampleCase{
				file:     "peterson-" + v.String() + ".litmus",
				build:    func() []*tso.Program { return pair(programs.PetersonPair(v)) },
				violates: v == programs.DekkerNoFence,
			},
			exampleCase{
				file:     "bakery-" + v.String() + ".litmus",
				build:    func() []*tso.Program { return pair(programs.BakeryPair(v)) },
				violates: v == programs.DekkerNoFence,
			})
	}
	return cases
}

// catalogMachine is the machine the catalog shapes were built on
// before examples/ became their source, and the one the catalog rows of
// TestExploreSerialPins were pinned on, for a shape of procs threads.
func catalogMachine(procs int) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Procs = procs
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	return cfg
}

// TestExamplesMatchHandBuilt is the corpus equivalence check. A catalog
// file is its shape's only source, so its row holds the machine it
// declares to the hand-written catalogMachine. Every protocol file
// explores to exactly the outcome set, deadlock count, and
// mutual-exclusion verdict of its hand-built internal/programs
// counterpart on the same machine.
func TestExamplesMatchHandBuilt(t *testing.T) {
	for _, ct := range litmus.Catalog() {
		ct := ct
		t.Run(ct.File, func(t *testing.T) {
			if want := catalogMachine(len(ct.Build())); ct.Config != want {
				t.Errorf("config %+v, want %+v", ct.Config, want)
			}
		})
	}
	for _, tc := range exampleCases() {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			src, err := examples.Litmus.ReadFile(tc.file)
			if err != nil {
				t.Fatalf("read example: %v", err)
			}
			c, err := litmuslang.CompileSource(string(src))
			if err != nil {
				t.Fatalf("compile example: %v", err)
			}

			hand := tc.build()
			if len(hand) != len(c.Programs) {
				t.Fatalf("thread count: example %d, hand-built %d", len(c.Programs), len(hand))
			}
			// Same machine on both sides; the example's config governs.
			cfg := c.Config
			handBuild := func() *tso.Machine { return tso.NewMachine(cfg, hand...) }
			handProps := []litmus.Property{litmus.MutualExclusion}

			want := litmus.ExploreSerial(handBuild, litmus.Options{Properties: handProps})
			got := litmus.ExploreSerial(c.Build, litmus.Options{Properties: c.Properties()})

			if want.Truncated || got.Truncated {
				t.Fatalf("exploration truncated (hand %v, example %v)", want.Truncated, got.Truncated)
			}
			if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
				t.Errorf("outcome mismatch:\nexample    %v\nhand-built %v",
					got.SortedOutcomes(), want.SortedOutcomes())
			}
			if got.Deadlocks != want.Deadlocks {
				t.Errorf("deadlocks: example %d, hand-built %d", got.Deadlocks, want.Deadlocks)
			}
			if (got.Violations > 0) != (want.Violations > 0) {
				t.Errorf("verdict mismatch: example violations=%d, hand-built=%d",
					got.Violations, want.Violations)
			}
			if (got.Violations > 0) != tc.violates {
				t.Errorf("verdict: violations=%d, expected violation=%v", got.Violations, tc.violates)
			}
		})
	}
}

// TestExampleCatalogClassification cross-checks each catalog entry's
// expect lines against its file compiled on its own: the relaxed outcome
// is reachable exactly when TSO allows it, and where the file declares a
// forbid line, the property verdict agrees with the TSO expectation.
func TestExampleCatalogClassification(t *testing.T) {
	for _, ct := range litmus.Catalog() {
		src, err := examples.Litmus.ReadFile(ct.File)
		if err != nil {
			t.Fatalf("read %s: %v", ct.File, err)
		}
		c, err := litmuslang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("compile %s: %v", ct.File, err)
		}
		allowed := ct.Allowed(arch.TSO)
		res := litmus.ExploreSerial(c.Build, litmus.Options{Properties: c.Properties()})
		if reached := res.CountOutcomes(ct.Relaxed) > 0; reached != allowed {
			t.Errorf("%s: relaxed outcome reachable=%v, want %v", ct.File, reached, allowed)
		}
		if c.Property != nil && (res.Violations > 0) != allowed {
			t.Errorf("%s: property violations=%d disagree with allowed=%v",
				ct.File, res.Violations, allowed)
		}
	}
}

// TestEveryExampleIsCovered forces new example files into a check: any
// .litmus under examples/ must be a catalog entry (checked by
// TestExampleCatalogClassification) or a protocol row of exampleCases.
func TestEveryExampleIsCovered(t *testing.T) {
	have, err := fs.Glob(examples.Litmus, "*.litmus")
	if err != nil {
		t.Fatal(err)
	}
	var covered []string
	for _, ct := range litmus.Catalog() {
		covered = append(covered, ct.File)
	}
	for _, tc := range exampleCases() {
		covered = append(covered, tc.file)
	}
	sort.Strings(have)
	sort.Strings(covered)
	if !reflect.DeepEqual(have, covered) {
		t.Fatalf("examples on disk and the covered files disagree:\n   disk: %v\ncovered: %v", have, covered)
	}
}
