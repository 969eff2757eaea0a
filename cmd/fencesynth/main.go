// Command fencesynth derives fence placements instead of checking them:
// given a fence-free protocol from the registry (or all of them) and its
// safety property, it runs counterexample-guided synthesis over the
// lattice of mfence / l-mfence placements and reports every minimal
// repair plus the cycle-cost-optimal one under the assumed
// primary:secondary execution-frequency ratio. On the Dekker protocol it
// rediscovers the paper's Fig. 3(a) placement — l-mfence guarding the
// primary's flag, full mfence on the secondary — from first principles.
//
// Usage:
//
//	fencesynth                      # synthesize the whole registry
//	fencesynth -problem dekker -v   # one problem, with the minimal frontier
//	fencesynth -kind lmfence        # restrict the placement lattice
//	fencesynth -ratio 1 -json       # symmetric workload, JSON report
//	fencesynth -corpus 100          # repair 100 generated scenarios end-to-end
//
// Corpus mode generates seeded litmus scenarios (skipping the ones that
// declare no assertion), synthesizes a repair for each, splices the
// optimal placement back in, and re-verifies every spliced program with
// the exact engine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/litmuslang"
	"repro/internal/synth"
)

func main() {
	problem := flag.String("problem", "all", "registry problem to synthesize (dekker|peterson|bakery|sb|mp|all)")
	file := flag.String("file", "", "synthesize fences for a .litmus scenario file (must declare an assertion) instead of the registry")
	kind := flag.String("kind", "both", "fence kinds the synthesizer may place (mfence|lmfence|both)")
	ratio := flag.Float64("ratio", synth.DefaultPrimaryWeight, "assumed primary:secondary execution-frequency ratio for the cost objective")
	workers := flag.Int("workers", 0, "exploration worker-pool size per verification (0 = GOMAXPROCS; under -corpus, 0 = GOMAXPROCS shared among the scenarios repaired at once, i.e. 1)")
	maxStates := flag.Int("max-states", 0, "per-candidate exploration budget in states (0 = checker default)")
	verbose := flag.Bool("v", false, "print the full minimal frontier per problem")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of tables")
	corpus := flag.Int("corpus", 0, "repair N generated scenarios end-to-end (generate → synthesize → splice → exact re-verify) instead of the registry")
	corpusSeed := flag.Int64("corpus-seed", 0, "base generator seed for -corpus scanning")
	corpusJournal := flag.String("corpus-journal", "", "journal file making -corpus resumable: completed scenarios persist as they finish and a rerun restores them instead of re-synthesizing")
	model := flag.String("model", "", "memory model every candidate is verified under: tso (default) or pso; with -file, overrides the file's config { model }")
	flag.Parse()

	mm, err := arch.ParseMemModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fencesynth:", err)
		flag.Usage()
		os.Exit(2)
	}

	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set); err != nil {
		fmt.Fprintln(os.Stderr, "fencesynth:", err)
		flag.Usage()
		os.Exit(2)
	}

	opts := synth.Options{
		Workers:       *workers,
		MaxStates:     *maxStates,
		PrimaryWeight: *ratio,
	}
	switch *kind {
	case "both":
	case "mfence":
		opts.AllowMfence = true
	case "lmfence":
		opts.AllowLmfence = true
	default:
		fmt.Fprintf(os.Stderr, "fencesynth: unknown -kind %q (want mfence|lmfence|both)\n", *kind)
		os.Exit(2)
	}

	if *corpus > 0 {
		os.Exit(runCorpus(*corpus, *corpusSeed, *corpusJournal, opts, *verbose, os.Stdout))
	}
	if *file != "" {
		var override *arch.MemModel // nil: the file's config { model } decides
		if set["model"] {
			override = &mm
		}
		os.Exit(runFile(*file, opts, override, *verbose, *jsonOut, os.Stdout))
	}

	probs := synth.Problems()
	if *problem != "all" {
		p, err := synth.LookupProblem(*problem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fencesynth:", err)
			os.Exit(2)
		}
		probs = []synth.Problem{p}
	}
	for i := range probs {
		probs[i].Config.Model = mm
	}

	if *jsonOut {
		os.Exit(runJSON(probs, opts))
	}
	os.Exit(runText(probs, opts, *verbose))
}

// validateFlags rejects mutually inconsistent flag combinations before
// any synthesis starts. set holds the names of the flags the user
// passed explicitly (collected via flag.Visit).
func validateFlags(set map[string]bool) error {
	if set["file"] && set["problem"] {
		return fmt.Errorf("-file is incompatible with -problem: the scenario file replaces the registry")
	}
	for _, f := range []string{"file", "problem", "json"} {
		if set["corpus"] && set[f] {
			return fmt.Errorf("-corpus is incompatible with -%s: corpus mode generates its own scenarios and reports a table", f)
		}
	}
	if set["corpus-seed"] && !set["corpus"] {
		return fmt.Errorf("-corpus-seed only applies to -corpus mode")
	}
	if set["corpus-journal"] && !set["corpus"] {
		return fmt.Errorf("-corpus-journal only applies to -corpus mode")
	}
	if set["corpus"] && set["model"] {
		return fmt.Errorf("-model is incompatible with -corpus: generated scenarios are verified under the model their config declares")
	}
	return nil
}

// runCorpus repairs a corpus of generated scenarios end-to-end and
// prints the aggregate table (with -v, one line per scenario). Exit
// codes: 0 when every scenario resolved cleanly, 1 when any errored —
// a spliced repair the exact engine refuted above all.
func runCorpus(n int, seed int64, journal string, opts synth.Options, verbose bool, w io.Writer) int {
	res, err := harness.RunCorpus(harness.CorpusOptions{
		Scenarios: n,
		Seed:      seed,
		Synth:     opts,
		Journal:   journal,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fencesynth:", err)
		return 2
	}
	if res.Resumed > 0 {
		fmt.Fprintf(w, "resumed %d journaled scenario(s) from %s\n", res.Resumed, journal)
	}
	fmt.Fprintln(w, res.Table())
	if verbose {
		for _, row := range res.Rows {
			switch {
			case row.Err != nil:
				fmt.Fprintf(w, "  seed %-6d %-12s ERROR: %v\n", row.Seed, row.Name, row.Err)
			case row.Unrepairable:
				fmt.Fprintf(w, "  seed %-6d %-12s unrepairable\n", row.Seed, row.Name)
			case row.AlreadySafe:
				fmt.Fprintf(w, "  seed %-6d %-12s already safe (%d states re-verified)\n",
					row.Seed, row.Name, row.ReverifyStates)
			default:
				fmt.Fprintf(w, "  seed %-6d %-12s %d fence(s), cost %.0f (%d states re-verified)\n",
					row.Seed, row.Name, row.Fences, row.Cost, row.ReverifyStates)
			}
		}
	}
	if len(res.Rows) < n {
		fmt.Fprintf(os.Stderr, "fencesynth: collected only %d of %d scenarios after scanning %d seeds\n",
			len(res.Rows), n, res.SeedsScanned)
		return 1
	}
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "fencesynth: %d scenario(s) errored (%d repair contract failures)\n",
			res.Errors, res.ContractFailures)
		return 1
	}
	return 0
}

// runFile compiles a .litmus scenario, synthesizes a repair for its
// declared assertion, and — unless the protocol is unrepairable —
// emits the cost-optimal placement spliced back in as parseable litmus
// source. A non-nil model replaces the file's config { model }, so the
// repaired render carries it too. Exit codes: 0 repaired (or already
// safe), 1 unrepairable or synthesis failure, 2 on I/O or compile
// errors.
func runFile(path string, opts synth.Options, model *arch.MemModel, verbose, jsonOut bool, w io.Writer) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fencesynth:", err)
		return 2
	}
	c, err := litmuslang.CompileSource(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fencesynth: %s: %v\n", path, err)
		return 2
	}
	if model != nil {
		c.Config.Model = *model
	}
	prob, err := c.Problem()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fencesynth: %s: %v\n", path, err)
		return 2
	}
	r, err := synth.Synthesize(prob, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fencesynth: %s: %v\n", prob.Name, err)
		return 1
	}

	repaired := ""
	if r.Optimal != nil {
		progs := r.Optimal.Placement.Apply(prob.Programs, opts.Scratch)
		repaired = litmuslang.Render(c.Name, c.Config, progs, c.Assert)
	}

	if jsonOut {
		jp := toJSONProblem(r)
		jp.RepairedSource = repaired
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jp); err != nil {
			fmt.Fprintln(os.Stderr, "fencesynth:", err)
			return 1
		}
	} else {
		report := &harness.SynthesisResult{Rows: []harness.SynthRow{rowOf(prob.Name, r)}}
		fmt.Fprintln(w, report.Table())
		if verbose {
			printDetailTo(w, r)
		}
		if r.Optimal != nil {
			if len(r.Optimal.Placement) == 0 {
				fmt.Fprintln(w, "already safe: no fences needed")
			} else {
				fmt.Fprintln(w, "repaired protocol (cost-optimal placement spliced in):")
				fmt.Fprintln(w)
				fmt.Fprint(w, repaired)
			}
		}
	}
	if r.Unrepairable {
		if !jsonOut {
			fmt.Fprintln(w, "UNREPAIRABLE — counterexample without store/load reordering:")
			fmt.Fprint(w, indent(r.Counterexample, "  "))
		}
		return 1
	}
	return 0
}

func runText(probs []synth.Problem, opts synth.Options, verbose bool) int {
	report := &harness.SynthesisResult{}
	results := make([]*synth.Result, 0, len(probs))
	failed := false
	for _, prob := range probs {
		r, err := synth.Synthesize(prob, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fencesynth: %s: %v\n", prob.Name, err)
			failed = true
			report.Rows = append(report.Rows, harness.SynthRow{Problem: prob.Name, Err: err})
			continue
		}
		results = append(results, r)
		report.Rows = append(report.Rows, rowOf(prob.Name, r))
	}
	fmt.Println(report.Table())

	if verbose {
		for _, r := range results {
			printDetail(r)
		}
	}
	if failed {
		return 1
	}
	return 0
}

func rowOf(name string, r *synth.Result) harness.SynthRow {
	row := harness.SynthRow{
		Problem:         name,
		Sites:           len(r.Sites),
		Candidates:      r.CandidatesChecked,
		Counterexamples: r.Counterexamples,
		Rounds:          r.Rounds,
		States:          r.StatesExplored,
		Minimal:         len(r.Minimal),
		Unrepairable:    r.Unrepairable,
	}
	if r.Optimal != nil {
		row.Optimal = r.Optimal.Placement.String()
		row.Cost = r.Optimal.Cost
	}
	return row
}

func printDetail(r *synth.Result) { printDetailTo(os.Stdout, r) }

func printDetailTo(w io.Writer, r *synth.Result) {
	fmt.Fprintf(w, "%s: %d candidate sites, %d minimal repair(s)\n", r.Problem, len(r.Sites), len(r.Minimal))
	if r.Unrepairable {
		fmt.Fprintln(w, "  UNREPAIRABLE — counterexample without store/load reordering:")
		fmt.Fprint(w, indent(r.Counterexample, "    "))
		fmt.Fprintln(w)
		return
	}
	for i, c := range r.Minimal {
		marker := " "
		if i == 0 {
			marker = "*" // cost-optimal
		}
		fmt.Fprintf(w, "  %s cost %8.0f  %v\n", marker, c.Cost, c.Placement)
	}
	fmt.Fprintln(w)
}

func indent(s, pad string) string {
	out := ""
	for len(s) > 0 {
		i := len(s)
		if j := indexByte(s, '\n'); j >= 0 {
			i = j + 1
		}
		out += pad + s[:i]
		s = s[i:]
	}
	return out
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// jsonAtom is one fence of a placement in the JSON report. Addr is the
// guarded location and so is present exactly for l-mfence atoms; a
// pointer keeps address 0 (e.g. Dekker's primary flag) distinguishable
// from absent.
type jsonAtom struct {
	Thread int     `json:"thread"`
	Instr  int     `json:"instr"`
	Kind   string  `json:"kind"`
	Addr   *uint32 `json:"addr,omitempty"`
}

type jsonPlacement struct {
	Atoms  []jsonAtom `json:"atoms"`
	Cost   float64    `json:"cost"`
	States int        `json:"states"`
}

type jsonProblem struct {
	Problem         string          `json:"problem"`
	Sites           int             `json:"sites"`
	Rounds          int             `json:"rounds"`
	Candidates      int             `json:"candidates_checked"`
	Counterexamples int             `json:"counterexamples"`
	States          int             `json:"states_explored"`
	Unrepairable    bool            `json:"unrepairable"`
	Minimal         []jsonPlacement `json:"minimal"`
	Optimal         *jsonPlacement  `json:"optimal,omitempty"`
	ElapsedSeconds  float64         `json:"elapsed_seconds"`
	// RepairedSource is the optimal placement spliced back into the
	// input and re-rendered as litmus source; -file mode only.
	RepairedSource string `json:"repaired_source,omitempty"`
}

// toJSONProblem flattens one synthesis result into the report shape.
func toJSONProblem(r *synth.Result) jsonProblem {
	jp := jsonProblem{
		Problem:         r.Problem,
		Sites:           len(r.Sites),
		Rounds:          r.Rounds,
		Candidates:      r.CandidatesChecked,
		Counterexamples: r.Counterexamples,
		States:          r.StatesExplored,
		Unrepairable:    r.Unrepairable,
		Minimal:         []jsonPlacement{},
		ElapsedSeconds:  r.Elapsed.Seconds(),
	}
	for _, c := range r.Minimal {
		jp.Minimal = append(jp.Minimal, toJSONPlacement(c))
	}
	if r.Optimal != nil {
		op := toJSONPlacement(*r.Optimal)
		jp.Optimal = &op
	}
	return jp
}

func toJSONPlacement(c synth.Candidate) jsonPlacement {
	jp := jsonPlacement{Cost: c.Cost, States: c.States, Atoms: []jsonAtom{}}
	for _, a := range c.Placement {
		ja := jsonAtom{Thread: a.Thread, Instr: a.Instr, Kind: a.Kind.String()}
		if a.Kind == synth.KindLmfence && a.AddrKnown {
			addr := uint32(a.Addr)
			ja.Addr = &addr
		}
		jp.Atoms = append(jp.Atoms, ja)
	}
	return jp
}

func runJSON(probs []synth.Problem, opts synth.Options) int {
	out := make([]jsonProblem, 0, len(probs))
	failed := false
	for _, prob := range probs {
		r, err := synth.Synthesize(prob, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fencesynth: %s: %v\n", prob.Name, err)
			failed = true
			continue
		}
		out = append(out, toJSONProblem(r))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "fencesynth:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}
