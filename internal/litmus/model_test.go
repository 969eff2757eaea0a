package litmus

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// TestTSOIsDefaultModel pins that a zero Config explores under TSO
// with the engine's historical transition relation: the catalog's
// state counts are exactly the pre-model-interface numbers. Any drift
// here means the Model refactor (or a later change) altered default
// semantics rather than just factoring them out.
func TestTSOIsDefaultModel(t *testing.T) {
	if (arch.Config{}).Model != arch.TSO {
		t.Fatal("the zero Config names a model other than TSO")
	}
	if got := resolve(catalogMachine("SB")(), Options{}, nil, false).model.Name(); got != "tso" {
		t.Fatalf("default model = %q, want tso", got)
	}
	want := map[string]int{
		"SB":         77,
		"SB+mfence":  52,
		"SB+lmfence": 90,
		"MP":         52,
		"LB":         56,
		"2+2W":       265,
		"CoRR":       75,
		"WRC":        254,
		"RWC":        296,
		"IRIW":       1116,
	}
	for _, ct := range Catalog() {
		if ct.Config.Model != arch.TSO {
			t.Fatalf("%s: catalog source declares model %s", ct.Name, ct.Config.Model)
		}
		res, err := RunCatalogTestOpts(ct, Options{})
		if err != nil {
			t.Errorf("%s: %v", ct.Name, err)
			continue
		}
		if res.States != want[ct.Name] {
			t.Errorf("%s: %d states under the default model, want the pinned %d",
				ct.Name, res.States, want[ct.Name])
		}
	}
}

// TestPSOCatalogClassifications explores the whole catalog under PSO:
// the hand-checked classifications must hold (RunCatalogTestOpts
// errors on any misclassification), PSO must weaken TSO on every test,
// and exactly the Principle-3 tests — MP and 2+2W, the ones whose
// relaxed outcome needs a store→store reordering — may gain states.
// Everything else keeps its TSO state count: with at most one pending
// address per processor, per-address drains are FIFO drains.
func TestPSOCatalogClassifications(t *testing.T) {
	widened := map[string]bool{"MP": true, "2+2W": true}
	for _, ct := range Catalog() {
		t.Run(ct.Name, func(t *testing.T) {
			tsoRes, err := RunCatalogTestOpts(ct, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pso := ct
			pso.Config.Model = arch.PSO
			psoRes, err := RunCatalogTestOpts(pso, Options{})
			if err != nil {
				for _, o := range psoRes.SortedOutcomes() {
					t.Logf("outcome: %s", o)
				}
				t.Fatal(err)
			}
			for o := range tsoRes.Outcomes {
				if _, ok := psoRes.Outcomes[o]; !ok {
					t.Errorf("TSO outcome %s unreachable under PSO", o)
				}
			}
			switch {
			case widened[ct.Name] && psoRes.States <= tsoRes.States:
				t.Errorf("states TSO=%d PSO=%d, want PSO strictly wider", tsoRes.States, psoRes.States)
			case !widened[ct.Name] && psoRes.States != tsoRes.States:
				t.Errorf("states TSO=%d PSO=%d, want identical (single pending address per proc)",
					tsoRes.States, psoRes.States)
			}
		})
	}
}

// TestClassicProtocolsUnderPSO is the model-gap table: the same nine
// protocol variants explored under both models. The point of the PSO
// backend is visible in the middle column pairs — Peterson's and
// bakery's TSO repair (mfence between the flag publication and the
// flag read) leaves the *two publications themselves* unordered, so a
// per-address buffer can make turn (or the ticket number) visible
// before the flag and mutual exclusion breaks; only disciplines that
// also order the stores survive. Dekker publishes one flag per thread
// before its fence, so its TSO placements happen to stay sufficient.
func TestClassicProtocolsUnderPSO(t *testing.T) {
	pairs := map[string]func(programs.DekkerVariant) (*tso.Program, *tso.Program){
		"dekker":   programs.DekkerPair,
		"peterson": programs.PetersonPair,
		"bakery":   programs.BakeryPair,
	}
	table := []struct {
		name                     string
		variant                  programs.DekkerVariant
		violatesTSO, violatesPSO bool
	}{
		{"dekker", programs.DekkerNoFence, true, true},
		{"dekker", programs.DekkerMfence, false, false},
		{"dekker", programs.DekkerLmfenceMirrored, false, false},

		{"peterson", programs.DekkerNoFence, true, true},
		{"peterson", programs.DekkerMfence, false, true},
		{"peterson", programs.DekkerLmfenceMirrored, false, true},

		{"bakery", programs.DekkerNoFence, true, true},
		{"bakery", programs.DekkerMfence, false, true},
		{"bakery", programs.DekkerLmfenceMirrored, false, false},
	}
	for _, r := range table {
		r := r
		t.Run(r.name+"-"+r.variant.String(), func(t *testing.T) {
			p0, p1 := pairs[r.name](r.variant)
			build := classicMachine(p0, p1)
			psoBuild := withConfig(build, func(c *arch.Config) { c.Model = arch.PSO })
			tsoRes := Explore(build, Options{Properties: []Property{MutualExclusion}})
			psoRes := Explore(psoBuild, Options{Properties: []Property{MutualExclusion}})
			if tsoRes.Truncated || psoRes.Truncated {
				t.Fatal("truncated")
			}
			if got := tsoRes.Violations > 0; got != r.violatesTSO {
				t.Errorf("TSO violates=%v, want %v", got, r.violatesTSO)
			}
			if got := psoRes.Violations > 0; got != r.violatesPSO {
				if got {
					t.Errorf("PSO violation not in the hand-checked table:\n%s",
						FormatTrace(psoBuild, psoRes.ViolationTrace))
				} else {
					t.Errorf("expected the PSO store→store reordering to break it, but it held (%d states)",
						psoRes.States)
				}
			}
			if psoRes.States < tsoRes.States {
				t.Errorf("PSO lost states: %d < %d", psoRes.States, tsoRes.States)
			}
		})
	}
}

// TestModelCheckpointMismatchPSO: resuming a snapshot under a
// different memory model must fail with a message naming both models
// — the one fixable mismatch a user should not have to decode from
// the options-hash dump — and resuming a PSO snapshot under PSO must
// reach the uninterrupted result exactly. The snapshots are the last
// periodic commits of runs that drained (a drained run writes no final
// one).
func TestModelCheckpointMismatchPSO(t *testing.T) {
	p0, p1 := catalogPair("SB")
	build := machineFor(p0, p1)
	psoBuild := withConfig(build, func(c *arch.Config) { c.Model = arch.PSO })
	every := CheckpointOptions{EveryStates: 20}

	tsoCk := every
	tsoCk.Dir = t.TempDir()
	Explore(build, Options{Workers: 1, Checkpoint: tsoCk})
	_, err := Resume(tsoCk.Dir, psoBuild, Options{Workers: 1})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume tso snapshot under pso: err = %v, want ErrCheckpointMismatch", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "tso") || !strings.Contains(msg, "pso") {
		t.Errorf("mismatch message must name both models, got: %v", err)
	}

	psoCk := every
	psoCk.Dir = t.TempDir()
	psoRef := Explore(psoBuild, Options{Workers: 1, Checkpoint: psoCk})
	if _, err := Resume(psoCk.Dir, build, Options{Workers: 1}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume pso snapshot under tso: err = %v, want ErrCheckpointMismatch", err)
	}
	res, err := Resume(psoCk.Dir, psoBuild, Options{Workers: 1})
	if err != nil {
		t.Fatalf("resume pso snapshot under pso: %v", err)
	}
	if got := int(res.Obs.Gauges["resumed_states"]); got == 0 || got >= psoRef.States {
		t.Errorf("resumed_states=%d of %d: the snapshot is not a mid-run commit", got, psoRef.States)
	}
	if res.States != psoRef.States || res.Violations != psoRef.Violations {
		t.Errorf("resumed result %d states / %d violations, reference %d / %d",
			res.States, res.Violations, psoRef.States, psoRef.Violations)
	}
}

// TestConfigModelReachesEveryEngine: the root machine's Config.Model is
// the one model input. MP declared PSO in its config must reach its
// PSO-only relaxed outcome through Explore, ExploreSerial and Resume
// with a zero Options, and the catalog declared SC must reach no
// relaxed outcome at all.
func TestConfigModelReachesEveryEngine(t *testing.T) {
	mp := CatalogEntry("MP")
	mp.Config.Model = arch.PSO
	progs := mp.Build()
	build := func() *tso.Machine { return tso.NewMachine(mp.Config, progs...) }
	relaxed := func(name string, r Result) {
		t.Helper()
		if r.Truncated || r.CountOutcomes(mp.Relaxed) == 0 {
			t.Errorf("%s: MP's relaxed outcome unreached in %d states: the config's PSO did not reach the engine",
				name, r.States)
		}
	}
	relaxed("Explore", Explore(build, Options{}))
	relaxed("ExploreSerial", ExploreSerial(build, Options{}))

	dir := t.TempDir()
	Explore(build, Options{Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 20}})
	res, err := Resume(dir, build, Options{})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if got := int(res.Obs.Gauges["resumed_states"]); got == 0 {
		t.Error("Resume restored no states: the snapshot is not a mid-run commit")
	}
	relaxed("Resume", res)

	for _, ct := range Catalog() {
		ct.Config.Model = arch.SC
		if _, err := RunCatalogTestOpts(ct, Options{}); err != nil {
			t.Errorf("SC: %v", err)
		}
	}
}
