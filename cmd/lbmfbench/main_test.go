package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
)

// TestFailedChecksAreRecorded drives a real registry entry into failing
// its checks: litmus_resume needs scratch directories for its
// snapshots, so with TMPDIR pointing nowhere every row fails. The
// failing table must print, the experiment must land in the bench file
// with all_pass = 0, the experiments after it must still run, and only
// then may the exit code be 1.
func TestFailedChecksAreRecorded(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))

	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "litmus_resume,fig4", "-scale", "test", "-bench-json", out}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	for _, want := range []string{"Checkpoint/resume", "FAIL", "Fig. 4", "wrote " + out} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "checks failed: litmus_resume") {
		t.Errorf("stderr does not name the failed experiment: %q", stderr.String())
	}

	file, err := bench.ReadFile(out)
	if err != nil {
		t.Fatalf("bench file not written: %v", err)
	}
	if m, ok := file.Experiments["litmus_resume"].Metrics["all_pass"]; !ok || m.Value != 0 {
		t.Errorf("litmus_resume all_pass = %+v, want 0", m)
	}
	if _, ok := file.Experiments["fig4"]; !ok {
		t.Error("fig4, listed after the failing experiment, did not run")
	}

	ran, err := bench.RunExperiment("litmus_resume", harness.QuickDefaults(), core.ModeAsymmetricSW)
	if !errors.Is(err, bench.ErrChecksFailed) || !strings.Contains(err.Error(), "litmus_resume") {
		t.Errorf("RunExperiment error = %v, want ErrChecksFailed naming litmus_resume", err)
	}
	if ran == nil || len(ran.Tables) == 0 {
		t.Error("failed checks came back without the tables to print")
	}
}

// TestExperimentListComesFromRegistry pins that neither the -exp help
// nor the unknown-name message is a hand-kept list.
func TestExperimentListComesFromRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exit code = %d, want 0", code)
	}
	usage := stderr.String()
	stderr.Reset()
	if code := run([]string{"-exp", "fig4,fig9000"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown experiment exit code = %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("an experiment ran before the list was validated:\n%s", stdout.String())
	}
	for _, name := range bench.Names {
		if !strings.Contains(usage, name) {
			t.Errorf("-exp help omits %q", name)
		}
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("unknown-experiment message omits %q", name)
		}
	}
}
