package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Ran is one executed experiment: its schema entry plus the paper-style
// tables to print.
type Ran struct {
	Exp    Experiment
	Tables []*stats.Table
}

// ErrChecksFailed marks an experiment whose machine-checked claims did
// not all pass; RunExperiment wraps it with the experiment's name. The
// Ran alongside it is complete (tables, metrics, all_pass = 0), so
// callers print and record the failing run before exiting non-zero.
var ErrChecksFailed = errors.New("bench: checks failed")

// experiment is one row of the registry in experiments.go.
type experiment struct {
	name string
	// run executes the harness driver and returns its result with the
	// closure that records the result's numbers under their bench keys.
	run func(opt harness.Options, mode core.Mode) (res any, emit func(*Experiment), err error)
}

// driver is the shape every harness entry point is adapted to.
type driver[R any] func(opt harness.Options, mode core.Mode) (R, error)

// entry builds a registry row from a driver and the function that
// flattens its result into metrics and samples. Everything else a
// result contributes is found by RunExperiment through its methods:
// Table or Tables, and optionally AllPass and ObsSnapshot.
func entry[R any](name string, run driver[R], emit func(*Experiment, R)) experiment {
	return experiment{name, func(opt harness.Options, mode core.Mode) (any, func(*Experiment), error) {
		res, err := run(opt, mode)
		return res, func(e *Experiment) { emit(e, res) }, err
	}}
}

// checker adapts a model-checker driver. A bench run measures the
// engine at its default pool size, so workers is 0 (= GOMAXPROCS).
func checker[R any](run func(workers int) R) driver[R] {
	return func(harness.Options, core.Mode) (R, error) { return run(0), nil }
}

// scaled adapts a driver that sizes itself from the options and cannot
// fail to run.
func scaled[R any](run func(harness.Options) R) driver[R] {
	return func(opt harness.Options, _ core.Mode) (R, error) { return run(opt), nil }
}

// measured adapts a driver whose set-up can be refused.
func measured[R any](run func(harness.Options) (R, error)) driver[R] {
	return func(opt harness.Options, _ core.Mode) (R, error) { return run(opt) }
}

// variant fixes the a/b switch of a figure driver (fig5: parallel,
// fig6: heuristic); these are the drivers the asymmetric mode reaches.
func variant[R any](run func(harness.Options, bool, core.Mode) (R, error), b bool) driver[R] {
	return func(opt harness.Options, mode core.Mode) (R, error) { return run(opt, b, mode) }
}

// Names lists every experiment in canonical -exp all order. The golden
// test pins that a full run records exactly these keys.
var Names = func() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	return names
}()

// lookup finds name's registry row, nil when there is none.
func lookup(name string) *experiment {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i]
		}
	}
	return nil
}

// Known reports whether name is a runnable experiment.
func Known(name string) bool { return lookup(name) != nil }

// metricKey flattens a label into a metric key segment.
func metricKey(s string) string {
	return strings.ReplaceAll(strings.TrimSpace(s), " ", "_")
}

// RunExperiment executes one experiment by name and converts its result
// into the bench schema. It is the single runner shared by
// cmd/lbmfbench and the end-to-end golden test. A harness error means
// the experiment did not run and comes back alone; failed checks come
// back as ErrChecksFailed next to the complete Ran.
func RunExperiment(name string, opt harness.Options, asymMode core.Mode) (*Ran, error) {
	x := lookup(name)
	if x == nil {
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %s)", name, strings.Join(Names, ", "))
	}
	start := time.Now()
	res, emit, err := x.run(opt, asymMode)
	if err != nil {
		return nil, err
	}
	ran := &Ran{Exp: Experiment{Name: name, Detail: res}}
	e := &ran.Exp
	emit(e)
	if o, ok := res.(interface{ ObsSnapshot() obs.Snapshot }); ok {
		e.setObs(o.ObsSnapshot())
	}
	switch t := res.(type) {
	case interface{ Tables() []*stats.Table }:
		ran.Tables = t.Tables()
	case interface{ Table() *stats.Table }:
		ran.Tables = []*stats.Table{t.Table()}
	}
	if c, ok := res.(interface{ AllPass() bool }); ok {
		pass := 1.0
		if !c.AllPass() {
			pass = 0
			err = fmt.Errorf("%w: %s", ErrChecksFailed, name)
		}
		e.putMetric("all_pass", pass, "", true)
	}
	e.ElapsedSeconds = time.Since(start).Seconds()
	return ran, err
}
