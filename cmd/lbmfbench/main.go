// Command lbmfbench regenerates the experiments of "Location-Based
// Memory Fences" (SPAA 2011) and prints paper-style tables.
//
// Usage:
//
//	lbmfbench -exp all
//	lbmfbench -exp fig5a -scale medium -reps 10
//	lbmfbench -exp fig6b -dur 10s -threads 1,2,4,8,16
//	lbmfbench -exp dekker,overhead,fig4
//	lbmfbench -exp all -scale test -bench-json BENCH_1.json
//	lbmfbench -exp chaos -faults 7,11,13
//
// The experiments are the rows of the internal/bench registry: -h lists
// their names, EXPERIMENTS.md says what each one reproduces or checks.
//
// -bench-json writes the versioned machine-readable schema that
// cmd/benchdiff consumes (pass "auto" to pick the next free
// BENCH_<n>.json); each experiment's full result is its "detail".
//
// An experiment whose machine-checked claims fail still prints its
// tables and is recorded; the remaining experiments run, the bench file
// is written, and only then does lbmfbench exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it returns the exit code (0 ok,
// 1 a failed run or failed checks, 2 bad flags).
func run(args []string, stdout, stderr io.Writer) int {
	opt := harness.Defaults()
	fs := flag.NewFlagSet("lbmfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiments ("+strings.Join(bench.Names, "|")+") or 'all'")
		scale    = fs.String("scale", "small", "workload scale: test|small|medium|paper")
		reps     = fs.Int("reps", 0, "repetitions per measurement (0 = default)")
		procs    = fs.Int("procs", 0, "workers for parallel runs (0 = default)")
		dur      = fs.Duration("dur", 0, "duration per fig6 cell (0 = default)")
		swMode   = fs.Bool("sw", true, "use the software-prototype cost profile for asymmetric runs (false = projected LE/ST hardware)")
		benchOut = fs.String("bench-json", "", "write versioned bench schema to this file ('auto' = next free BENCH_<n>.json)")
	)
	listFlag(fs, "threads", "comma-separated fig6 thread counts", &opt.ThreadCounts, strconv.Atoi)
	listFlag(fs, "ratios", "comma-separated fig6 read:write ratios", &opt.ReadWriteRatios, strconv.Atoi)
	listFlag(fs, "faults", "comma-separated chaos fault-schedule seeds", &opt.FaultSeeds,
		func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "lbmfbench: %v\n", err)
		return 1
	}

	switch *scale {
	case "test":
		opt.Scale = workloads.ScaleTest
	case "small":
		opt.Scale = workloads.ScaleSmall
	case "medium":
		opt.Scale = workloads.ScaleMedium
	case "paper":
		opt.Scale = workloads.ScalePaper
	default:
		return fail(fmt.Errorf("unknown -scale %q", *scale))
	}
	if *reps > 0 {
		opt.Reps = *reps
	}
	if *procs > 0 {
		opt.Procs = *procs
	}
	if *dur > 0 {
		opt.CellDuration = *dur
	}
	asymMode := core.ModeAsymmetricSW
	if !*swMode {
		asymMode = core.ModeAsymmetricHW
	}

	// Validate the whole experiment list before running anything: a typo
	// in "-exp fig5a,fig6x" must not burn minutes of fig5a first.
	names, err := parseExperiments(*exp)
	if err != nil {
		return fail(err)
	}

	file := bench.NewFile(*scale, opt.Reps, opt.Procs)
	start := time.Now()
	var failed []error
	for _, name := range names {
		ran, err := bench.RunExperiment(name, opt, asymMode)
		if errors.Is(err, bench.ErrChecksFailed) {
			failed = append(failed, err)
		} else if err != nil {
			return fail(err)
		}
		for _, t := range ran.Tables {
			fmt.Fprintln(stdout, t)
		}
		file.Experiments[name] = ran.Exp
	}
	file.ElapsedSeconds = time.Since(start).Seconds()
	file.Timestamp = time.Now().UTC().Format(time.RFC3339)

	if *benchOut != "" {
		path := *benchOut
		if path == "auto" {
			path = nextBenchFile()
		}
		if err := bench.Write(path, file); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	if len(failed) > 0 {
		return fail(errors.Join(failed...))
	}
	fmt.Fprintf(stdout, "total: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// parseExperiments splits and validates -exp. "all" (alone or in a
// list) expands to the canonical order; an unknown name is an error
// before any experiment runs.
func parseExperiments(s string) ([]string, error) {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		switch {
		case name == "":
			return nil, fmt.Errorf("empty experiment name in -exp %q", s)
		case name == "all":
			for _, n := range bench.Names {
				add(n)
			}
		case bench.Known(name):
			add(name)
		default:
			return nil, fmt.Errorf("unknown experiment %q (known: %s, all)", name, strings.Join(bench.Names, ", "))
		}
	}
	return names, nil
}

// nextBenchFile picks the first unused BENCH_<n>.json in the working
// directory.
func nextBenchFile() string {
	for n := 1; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

// listFlag registers a comma-separated list flag that replaces *dst
// when given.
func listFlag[T any](fs *flag.FlagSet, name, usage string, dst *[]T, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) error {
		var out []T
		for _, part := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		*dst = out
		return nil
	})
}
