// Command litmus model-checks the paper's protocols over every TSO
// interleaving the simulated machine admits, and prints the Section 4
// verification report. With -trace it additionally prints the
// counterexample interleaving for the unfenced Dekker protocol — the
// reordering that motivates the whole paper. With -json it emits a
// machine-readable summary (per-test states and aggregate states/sec)
// suitable for tracking checker throughput across changes. -reduction
// explores the catalog with partial-order reduction, ample sets on top
// of sleep sets (same verdicts, fewer states). An unreduced TSO run
// still sleeps, with or without a symmetry: it skips the edges a
// commuting sibling covers but keeps every state (or orbit), and counts
// every edge in its transitions. -por prints
// the reduced-vs-unreduced state-count comparison over the protocol
// suite. -compress keys the visited set on exact collapsed states
// (interned component tables plus index tuples) instead of 128-bit hash
// pairs, -membudget caps the visited set's resident bytes and spills
// cold stripes to disk instead of truncating, whichever keys it holds,
// and -nproc N additionally model-checks the N-process bakery and
// Peterson generators under cyclic-symmetry reduction with ample sets
// (no sleep sets: with Reduction and a symmetry together they are off).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/litmuslang"
	"repro/internal/programs"
	"repro/internal/tso"
)

func main() {
	trace := flag.Bool("trace", false, "print the unfenced Dekker counterexample trace")
	catalog := flag.Bool("catalog", true, "run the classic litmus-test catalog")
	workers := flag.Int("workers", 0, "exploration worker-pool size (0 = GOMAXPROCS)")
	reduction := flag.Bool("reduction", false, "explore the catalog with partial-order reduction (ample sets; an unreduced TSO run already sleeps edges, never states)")
	por := flag.Bool("por", false, "print the reduced-vs-unreduced comparison over the protocol suite")
	compress := flag.Bool("compress", false, "store visited states collapse-compressed")
	memBudget := flag.Int64("membudget", 0, "visited-set resident-byte budget, spilling cold stripes to disk (0 = unlimited)")
	nproc := flag.Int("nproc", 0, "also model-check the N-process bakery/Peterson generators under symmetry reduction (0 = skip)")
	file := flag.String("file", "", "model-check a single .litmus scenario file instead of the built-in suite")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON summary instead of tables")
	checkpoint := flag.String("checkpoint", "", "checkpoint directory for the -file exploration: periodic durable snapshots a killed run resumes from (requires -file)")
	ckptEvery := flag.Int("checkpoint-every", 5000, "checkpoint every N claimed states (requires -checkpoint)")
	resume := flag.Bool("resume", false, "resume the -file exploration from the -checkpoint directory instead of starting fresh")
	crashAfter := flag.Int("crash-after", 0, "SIGKILL this process right after the Nth checkpoint commit — crash-recovery testing only (requires -checkpoint)")
	model := flag.String("model", "", "memory model for the catalog and -trace explorations: tso (default) or pso; with -file, overrides the file's config { model }")
	flag.Parse()

	mm, err := arch.ParseMemModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		flag.Usage()
		os.Exit(2)
	}

	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, mm); err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		flag.Usage()
		os.Exit(2)
	}

	catOpts := litmus.Options{
		Workers:   *workers,
		Reduction: *reduction,
		Collapse:  *compress,
		MemBudget: *memBudget,
	}

	if *file != "" {
		fc := fileCkpt{dir: *checkpoint, every: *ckptEvery, resume: *resume, crashAfter: *crashAfter}
		var override *arch.MemModel // nil: the file's config { model } decides
		if set["model"] {
			override = &mm
		}
		os.Exit(runFile(*file, catOpts, fc, override, *jsonOut, os.Stdout))
	}

	if *jsonOut {
		os.Exit(runJSON(*catalog, catOpts, mm))
	}

	res := harness.RunTheorems(*workers)
	fmt.Println(res.Table())

	failed := !res.AllPass()
	if *catalog {
		failed = printCatalog(catOpts, mm) || failed
	}
	if *por {
		pr := harness.RunPOR(*workers)
		fmt.Println(pr.Table())
		failed = failed || !pr.AllPass()
	}
	if *nproc > 0 {
		failed = printNProc(*nproc, catOpts) || failed
	}
	if *trace {
		printCounterexample(*workers, mm)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "litmus: verification FAILED")
		os.Exit(1)
	}
}

// validateFlags rejects mutually inconsistent flag combinations up
// front, before any exploration starts. set holds the names of the
// flags the user passed explicitly (collected via flag.Visit), which
// distinguishes "-catalog=true" spelled out from the same default.
func validateFlags(set map[string]bool, model arch.MemModel) error {
	if model != arch.TSO {
		if set["reduction"] {
			return fmt.Errorf("-reduction is incompatible with -model %s: sleep-set reduction assumes TSO's FIFO drain enabledness and the %s engine runs unreduced", model, model)
		}
		if set["por"] {
			return fmt.Errorf("-por is incompatible with -model %s: the reduced-vs-unreduced comparison only exists for TSO", model)
		}
		if set["nproc"] {
			return fmt.Errorf("-nproc is incompatible with -model %s: the N-process generators rely on partial-order reduction, which the %s engine does not support", model, model)
		}
	}
	if set["file"] {
		for _, name := range []string{"nproc", "trace", "por", "catalog"} {
			if set[name] {
				return fmt.Errorf("-file is incompatible with -%s: the scenario file replaces the built-in suite", name)
			}
		}
	}
	if set["checkpoint"] && !set["file"] {
		return fmt.Errorf("-checkpoint requires -file: only single-scenario explorations are checkpointed")
	}
	for _, name := range []string{"resume", "checkpoint-every", "crash-after"} {
		if set[name] && !set["checkpoint"] {
			return fmt.Errorf("-%s requires -checkpoint: there is no snapshot directory without it", name)
		}
	}
	return nil
}

// fileCkpt carries the -checkpoint flag family into runFile.
type fileCkpt struct {
	dir        string // checkpoint directory ("" = checkpointing off)
	every      int    // snapshot cadence in claimed states
	resume     bool   // resume from dir instead of exploring fresh
	crashAfter int    // SIGKILL after the Nth commit (0 = never)
}

// fileSummary is the -file -json output shape.
type fileSummary struct {
	Name        string         `json:"name"`
	Threads     int            `json:"threads"`
	States      int            `json:"states"`
	Transitions int            `json:"transitions"`
	Outcomes    map[string]int `json:"outcomes"`
	Deadlocks   int            `json:"deadlocks"`
	Violations  int            `json:"violations"`
	Property    string         `json:"property,omitempty"`
	Pass        bool           `json:"pass"`
	Resumed     bool           `json:"resumed,omitempty"`
	// Keys is what the visited set was keyed on: litmus.KeysHashed, or
	// litmus.KeysCollapsed under -compress; a resumed run reports its
	// checkpoint's.
	Keys string `json:"keys"`
	// Model is the memory model the exploration ran under.
	Model string `json:"model"`
}

// runFile compiles and model-checks one .litmus scenario, reporting its
// outcome set and (when the file declares an assertion) the verdict. A
// non-nil model replaces the file's config { model }. The return value
// is the process exit code: 0 clean, 1 when the assertion is violated
// or the exploration truncated, 2 on I/O or compile errors (including
// an unusable checkpoint under -resume).
func runFile(path string, opts litmus.Options, fc fileCkpt, model *arch.MemModel, jsonOut bool, w io.Writer) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		return 2
	}
	c, err := litmuslang.CompileSource(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "litmus: %s: %v\n", path, err)
		return 2
	}
	opts.Properties = c.Properties()
	if model != nil {
		c.Config.Model = *model
	}
	if fc.dir != "" {
		opts.Checkpoint = litmus.CheckpointOptions{Dir: fc.dir, EveryStates: fc.every}
		if fc.crashAfter > 0 {
			opts.Checkpoint.OnCommit = func(n int) {
				if n >= fc.crashAfter {
					killSelf()
				}
			}
		}
	}
	var res litmus.Result
	if fc.resume {
		res, err = litmus.Resume(fc.dir, c.Build, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "litmus: resuming from %s: %v\n", fc.dir, err)
			return 2
		}
	} else {
		res = litmus.Explore(c.Build, opts)
	}
	pass := res.Violations == 0 && !res.Truncated

	if jsonOut {
		sum := fileSummary{
			Name:        c.Name,
			Threads:     len(c.Programs),
			States:      res.States,
			Transitions: res.Transitions,
			Outcomes:    make(map[string]int, len(res.Outcomes)),
			Deadlocks:   res.Deadlocks,
			Violations:  res.Violations,
			Property:    c.PropertyDoc,
			Pass:        pass,
			Resumed:     fc.resume,
			Keys:        res.Keys(),
			Model:       c.Config.Model.String(),
		}
		for o, n := range res.Outcomes {
			sum.Outcomes[string(o)] = n
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintln(os.Stderr, "litmus:", err)
			return 1
		}
	} else {
		fmt.Fprintf(w, "%s: %d threads, %d states, %d transitions, %d deadlocks\n",
			c.Name, len(c.Programs), res.States, res.Transitions, res.Deadlocks)
		fmt.Fprintf(w, "quiesced outcomes (%d distinct):\n", len(res.Outcomes))
		for _, o := range res.SortedOutcomes() {
			fmt.Fprintf(w, "  %-40s ×%d\n", o, res.Outcomes[o])
		}
		if c.HasProperty() {
			verdict := "PASS"
			if res.Violations > 0 {
				verdict = fmt.Sprintf("FAIL (%d violating states)", res.Violations)
			}
			fmt.Fprintf(w, "property %q: %s\n", c.PropertyDoc, verdict)
		} else {
			fmt.Fprintln(w, "no assertion declared: outcome report only")
		}
		if res.Truncated {
			fmt.Fprintln(w, "WARNING: exploration truncated — results are a lower bound")
		}
	}
	if !pass {
		return 1
	}
	return 0
}

// printCatalog runs the classic litmus tests under model and reports
// per-test verdicts; it returns whether any failed.
func printCatalog(opts litmus.Options, model arch.MemModel) bool {
	if model == arch.PSO {
		fmt.Println("Classic litmus tests under PSO (per-address store buffers):")
	} else {
		fmt.Println("Classic litmus tests (TSO ordering principles 1-4 + store atomicity):")
	}
	failed := false
	for _, ct := range litmus.Catalog() {
		ct.Config.Model = model
		res, err := litmus.RunCatalogTestOpts(ct, opts)
		verdict := "PASS"
		if err != nil {
			verdict = "FAIL: " + err.Error()
			failed = true
		}
		expect := "forbidden"
		if ct.Allowed(model) {
			expect = "allowed"
		}
		fmt.Printf("  %-11s %6d states  %9.0f states/sec  relaxed outcome %-9s  %s\n",
			ct.Name, res.States, res.StatesPerSec(), expect, verdict)
	}
	fmt.Println()
	return failed
}

// printNProc model-checks the N-process bakery and Peterson generators
// under cyclic-symmetry reduction and reports verdicts; it returns
// whether any check failed. Partial-order reduction is always on here —
// the unreduced interleaving space is intractable past n=3 — and the
// -compress/-membudget settings carry over so the section exercises the
// same representation stack the scaling tests pin.
func printNProc(n int, catOpts litmus.Options) bool {
	fmt.Printf("N-process generators at n=%d (cyclic-symmetry reduction + POR):\n", n)
	failed := false
	for _, gen := range []func(int, programs.DekkerVariant) *programs.SymProtocol{
		programs.BakeryN, programs.PetersonN,
	} {
		for _, v := range []programs.DekkerVariant{
			programs.DekkerNoFence, programs.DekkerMfence, programs.DekkerLmfence,
		} {
			sp := gen(n, v)
			wantViolation := v == programs.DekkerNoFence
			res := litmus.Explore(sp.Build, litmus.Options{
				Properties: []litmus.Property{litmus.MutualExclusion},
				Workers:    catOpts.Workers,
				Reduction:  true,
				Collapse:   catOpts.Collapse,
				MemBudget:  catOpts.MemBudget,
				Symmetry:   sp.Sym,
				// The unfenced rows only need the counterexample; the safe
				// rows need the whole orbit space, which outgrows the default
				// cap past n=3.
				StopOnViolation: wantViolation,
				MaxStates:       64_000_000,
			})
			verdict := "PASS"
			switch {
			case res.Truncated:
				verdict = "FAIL: truncated (raise -membudget or state cap)"
				failed = true
			case wantViolation && res.Violations == 0:
				verdict = "FAIL: missed mutual-exclusion violation"
				failed = true
			case !wantViolation && res.Violations > 0:
				verdict = "FAIL: false mutual-exclusion violation"
				failed = true
			case res.Deadlocks > 0:
				verdict = fmt.Sprintf("FAIL: %d deadlocks", res.Deadlocks)
				failed = true
			}
			expect := "safe"
			if wantViolation {
				expect = "violates"
			}
			fmt.Printf("  %-18s %9d orbits  %9.0f states/sec  expect %-8s  %s",
				sp.Name, res.States, res.StatesPerSec(), expect, verdict)
			if rotated, ok := res.Obs.Counters["symmetry_rotated_keys"]; ok {
				// Exact keys: how many took a proper rotation, and how many
				// of those built the representative instead of renaming ids.
				fmt.Printf("  (%d rotated keys, %d built)", rotated, res.Obs.Counters["symmetry_map_misses"])
			}
			fmt.Println()
		}
	}
	fmt.Println()
	return failed
}

// jsonTest is one model-checked test in the -json summary.
type jsonTest struct {
	Name         string  `json:"name"`
	States       int     `json:"states"`
	Transitions  int     `json:"transitions"`
	Outcomes     int     `json:"outcomes"`
	Violations   int     `json:"violations"`
	StatesPerSec float64 `json:"states_per_sec"`
	Pass         bool    `json:"pass"`
}

// jsonSummary is the -json output: per-test rows plus aggregate checker
// throughput, for BENCH_*.json-style tracking across PRs.
type jsonSummary struct {
	Workers        int        `json:"workers"`
	GOMAXPROCS     int        `json:"gomaxprocs"`
	Reduction      bool       `json:"reduction"`
	Model          string     `json:"model"`
	Theorems       []jsonTest `json:"theorems"`
	Catalog        []jsonTest `json:"catalog"`
	TotalStates    int        `json:"total_states"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
	StatesPerSec   float64    `json:"states_per_sec"`
	AllPass        bool       `json:"all_pass"`
}

func runJSON(catalog bool, opts litmus.Options, model arch.MemModel) int {
	// Report the resolved pool size, not the raw flag (0 = GOMAXPROCS).
	resolved := opts.Workers
	if resolved <= 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	sum := jsonSummary{
		Workers:    resolved,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reduction:  opts.Reduction,
		Model:      model.String(),
		AllPass:    true,
	}
	start := time.Now()

	th := harness.RunTheorems(opts.Workers)
	for _, row := range th.Rows {
		sum.Theorems = append(sum.Theorems, jsonTest{
			Name:       row.Name,
			States:     row.States,
			Outcomes:   row.Outcomes,
			Violations: row.Violations,
			Pass:       row.Pass,
		})
		sum.TotalStates += row.States
		sum.AllPass = sum.AllPass && row.Pass
	}
	if catalog {
		for _, ct := range litmus.Catalog() {
			ct.Config.Model = model
			res, err := litmus.RunCatalogTestOpts(ct, opts)
			sum.Catalog = append(sum.Catalog, jsonTest{
				Name:         ct.Name,
				States:       res.States,
				Transitions:  res.Transitions,
				Outcomes:     len(res.Outcomes),
				Violations:   res.Violations,
				StatesPerSec: res.StatesPerSec(),
				Pass:         err == nil,
			})
			sum.TotalStates += res.States
			sum.AllPass = sum.AllPass && err == nil
		}
	}
	sum.ElapsedSeconds = time.Since(start).Seconds()
	if sum.ElapsedSeconds > 0 {
		sum.StatesPerSec = float64(sum.TotalStates) / sum.ElapsedSeconds
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		return 1
	}
	if !sum.AllPass {
		return 1
	}
	return 0
}

func printCounterexample(workers int, model arch.MemModel) {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	cfg.Model = model
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := func() *tso.Machine { return tso.NewMachine(cfg, p0, p1) }
	r := litmus.Explore(build, litmus.Options{
		Properties:      []litmus.Property{litmus.MutualExclusion},
		StopOnViolation: true,
		Workers:         workers,
	})
	if r.Violations == 0 {
		fmt.Println("no violation found (unexpected)")
		return
	}
	fmt.Println("Counterexample: unfenced Dekker, both threads in the critical section")
	fmt.Println("(the load commits while the older flag store is still in the store buffer):")
	fmt.Println()
	fmt.Print(litmus.FormatTrace(build, r.ViolationTrace))
}
