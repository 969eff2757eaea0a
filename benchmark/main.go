// Command benchmark is the repository's end-to-end benchmark driver:
// six closed-loop batch workloads over the model checker, the fence
// synthesizer and the litmusd job runner, each checked against pinned
// answers, plus a traced run that attributes cost to each package.
// BENCHMARK.json at the repository root names the command, the
// workloads and every metric; README.md in this directory explains
// them.
//
// With -workload the driver runs one workload for -seconds and prints,
// as its last line, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. Without -workload it runs all six, untraced then
// traced, and prints every metric by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// workers is W: the pinned GOMAXPROCS and the worker count passed to
// every API that takes one. parallel_efficiency and pool_efficiency
// compare W workers against one, so W is fixed, not "whatever the host
// has".
const workers = 2

// cleanups holds registered teardown (kill the litmusd child, remove
// the temp spool); every exit path, signals included, runs it once.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(f func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	cleanups.fns = append(cleanups.fns, f)
}

func runCleanups() {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	for i := len(cleanups.fns) - 1; i >= 0; i-- {
		cleanups.fns[i]()
	}
	cleanups.fns = nil
}

func exit(code int) {
	runCleanups()
	os.Exit(code)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	exit(code)
}

// findRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or any parent")
		}
		dir = parent
	}
}

// gitOutput runs git in root; the benchmark checkout need not be a
// repository, so failure is an answer, not an error.
func gitOutput(root string, args ...string) (string, bool) {
	out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
	return strings.TrimSpace(string(out)), err == nil
}

func printHeader(e *env, seconds float64) {
	sha, ok := gitOutput(e.root, "rev-parse", "HEAD")
	if !ok {
		sha = "unknown (not a git checkout)"
	}
	fmt.Printf("# benchmark: commit %s, %s, nproc %d, GOMAXPROCS=W=%d, scale %s, seed %d, corpus seed %d, %gs of timed reps per run, setup timed %d/%d/%d times (explore/synth/daemon)\n",
		sha, runtime.Version(), runtime.NumCPU(), workers, e.scale.name, e.seed, e.corpusSeed, seconds,
		exploreSetupReps, synthSetupReps, daemonSetupReps)
	if !e.pinnedCorpus() {
		fmt.Printf("# corpus seed %d is not the pinned %d: golden.json's corpus rows do not apply; synth-* fall back to cross-checks (synth-accel rows = synth-plain rows, 0 errors, 0 contract failures)\n",
			e.corpusSeed, defaultSeed)
	}
}

func main() {
	var (
		workload    = flag.String("workload", "", "run this one workload and print the result object as the last line (default: all six)")
		seed        = flag.Int64("seed", defaultSeed, "input seed: daemon submission order, probe walk order")
		corpusSeed  = flag.Int64("corpus-seed", defaultSeed, "base generator seed of the repair corpus; only the default is pinned in golden.json")
		seconds     = flag.Float64("seconds", 0, "seconds of timed reps per run (default: run_seconds of BENCHMARK.json)")
		trace       = flag.Int("trace", 0, "0: untraced reps, end-to-end metrics; 1: traced run, per-layer metrics")
		scaleName   = flag.String("scale", "ref", "input sizes: ref (what BENCHMARK.json measures), full (ISSUE 11's reference sizes), smoke (test scale)")
		repeatCheck = flag.Bool("repeat-check", false, "run the whole set twice and fail if any end-to-end metric moves by more than its bound")
		update      = flag.Bool("update-golden", false, "recompute golden.json for -scale (refuses on a dirty tree)")
	)
	flag.Parse()

	if runtime.NumCPU() < workers {
		fatalf(2, "host has %d CPU(s); W=%d workers on fewer cores would silently change what litmus.parallel_efficiency and harness.pool_efficiency mean", runtime.NumCPU(), workers)
	}
	runtime.GOMAXPROCS(workers)

	root, err := findRoot()
	if err != nil {
		fatalf(2, "%v", err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fatalf(2, "%v", err)
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fatalf(2, "unknown -scale %q (want ref, full or smoke)", *scaleName)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "benchmark: interrupted; stopping litmusd and removing the temp spool")
		exit(130)
	}()

	e, err := newEnv(root, spec, sc, *seed, *corpusSeed)
	if err != nil {
		fatalf(2, "%v", err)
	}
	defer runCleanups()

	switch {
	case *update:
		if err := updateGolden(e); err != nil {
			fatalf(1, "%v", err)
		}
	case *repeatCheck:
		printHeader(e, *seconds)
		if !runRepeatCheck(e, *seconds) {
			exit(1)
		}
	case *workload != "":
		w := workloadByName(*workload)
		if w == nil {
			fatalf(2, "unknown -workload %q", *workload)
		}
		printHeader(e, *seconds)
		res, err := runWorkload(e, w, *seconds, *trace == 1)
		if err != nil {
			fatalf(1, "%s: %v", *workload, err)
		}
		res.print(*workload)
		line, err := json.Marshal(res.object())
		if err != nil {
			fatalf(1, "%v", err)
		}
		runCleanups()
		fmt.Println(string(line))
	default:
		printHeader(e, *seconds)
		ok := true
		for _, w := range allWorkloads() {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(e, w, *seconds, traced)
				if err != nil {
					fatalf(1, "%s: %v", w.name(), err)
				}
				res.print(w.name())
				ok = ok && res.failed == 0
			}
		}
		if !ok {
			exit(1)
		}
	}
}
