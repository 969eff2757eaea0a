package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/litmus"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     []string
		wantErr string // substring of the error, "" = valid
	}{
		{"empty", nil, ""},
		{"suite flags", []string{"trace", "por", "nproc", "workers"}, ""},
		{"membudget with compress", []string{"membudget", "compress"}, ""},
		{"membudget alone", []string{"membudget"}, ""},
		{"file alone", []string{"file"}, ""},
		{"file with engine knobs", []string{"file", "workers", "reduction", "compress", "json"}, ""},
		{"file with nproc", []string{"file", "nproc"}, "-file is incompatible with -nproc"},
		{"file with trace", []string{"file", "trace"}, "-file is incompatible with -trace"},
		{"file with por", []string{"file", "por"}, "-file is incompatible with -por"},
		{"file with explicit catalog", []string{"file", "catalog"}, "-file is incompatible with -catalog"},
		{"file with membudget alone", []string{"file", "membudget"}, ""},
		{"file with checkpoint", []string{"file", "checkpoint"}, ""},
		{"full checkpoint family", []string{"file", "checkpoint", "checkpoint-every", "resume", "crash-after"}, ""},
		{"checkpoint without file", []string{"checkpoint"}, "-checkpoint requires -file"},
		{"resume without checkpoint", []string{"file", "resume"}, "-resume requires -checkpoint"},
		{"cadence without checkpoint", []string{"file", "checkpoint-every"}, "-checkpoint-every requires -checkpoint"},
		{"crash-after without checkpoint", []string{"file", "crash-after"}, "-crash-after requires -checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := make(map[string]bool, len(tc.set))
			for _, f := range tc.set {
				set[f] = true
			}
			err := validateFlags(set, arch.TSO)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// writeScenario drops src into a temp .litmus file and returns its path.
func writeScenario(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.litmus")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sbFenced = `litmus "sb+mfence"
config { memwords 16 sbdepth 4 }
shared x @ 4, y @ 5
thread "w0" {
  storei [x], 1
  mfence
  load r0, [y]
  halt
}
thread "w1" {
  storei [y], 1
  mfence
  load r0, [x]
  halt
}
forbid P0:r0=0 & P1:r0=0
`

const sbRelaxed = `litmus "sb"
config { memwords 16 sbdepth 4 }
shared x @ 4, y @ 5
thread "w0" {
  storei [x], 1
  load r0, [y]
  halt
}
thread "w1" {
  storei [y], 1
  load r0, [x]
  halt
}
forbid P0:r0=0 & P1:r0=0
`

func TestRunFilePass(t *testing.T) {
	var out bytes.Buffer
	code := runFile(writeScenario(t, sbFenced), litmus.Options{}, fileCkpt{}, nil, false, &out)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\noutput:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{"sb+mfence: 2 threads", "PASS", "quiesced outcomes"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFileViolation(t *testing.T) {
	var out bytes.Buffer
	code := runFile(writeScenario(t, sbRelaxed), litmus.Options{}, fileCkpt{}, nil, false, &out)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\noutput:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("output missing FAIL verdict:\n%s", out.String())
	}
}

func TestRunFileJSON(t *testing.T) {
	var out bytes.Buffer
	code := runFile(writeScenario(t, sbFenced), litmus.Options{}, fileCkpt{}, nil, true, &out)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\noutput:\n%s", code, out.String())
	}
	var sum fileSummary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if sum.Name != "sb+mfence" || sum.Threads != 2 || !sum.Pass || sum.States == 0 {
		t.Errorf("summary fields wrong: %+v", sum)
	}
	// Both fenced threads must be able to observe each other's store:
	// the relaxed outcome is absent, the three SC outcomes are present.
	if len(sum.Outcomes) != 3 {
		t.Errorf("fenced SB has %d outcomes, want 3: %v", len(sum.Outcomes), sum.Outcomes)
	}
}

func TestRunFileErrors(t *testing.T) {
	if code := runFile(filepath.Join(t.TempDir(), "missing.litmus"), litmus.Options{}, fileCkpt{}, nil, false, os.Stderr); code != 2 {
		t.Errorf("missing file: exit code %d, want 2", code)
	}
	if code := runFile(writeScenario(t, "thread { jmp @nowhere }"), litmus.Options{}, fileCkpt{}, nil, false, os.Stderr); code != 2 {
		t.Errorf("compile error: exit code %d, want 2", code)
	}
}

// TestRunFileCheckpointResume drives the -checkpoint/-resume flag
// plumbing end to end in-process: a checkpointed run leaves a final
// snapshot, and -resume reproduces its summary exactly from that
// snapshot instead of re-exploring.
func TestRunFileCheckpointResume(t *testing.T) {
	scenario := writeScenario(t, sbRelaxed)
	ckpt := filepath.Join(t.TempDir(), "ckpt")

	var ref bytes.Buffer
	if code := runFile(scenario, litmus.Options{}, fileCkpt{dir: ckpt, every: 50}, nil, true, &ref); code != 1 {
		t.Fatalf("checkpointed run: exit code %d, want 1 (forbidden outcome reached)\n%s", code, ref.String())
	}
	var refSum fileSummary
	if err := json.Unmarshal(ref.Bytes(), &refSum); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := runFile(scenario, litmus.Options{}, fileCkpt{dir: ckpt, every: 50, resume: true}, nil, true, &out); code != 1 {
		t.Fatalf("resumed run: exit code %d, want 1\n%s", code, out.String())
	}
	var sum fileSummary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Resumed {
		t.Error("resumed summary not marked resumed")
	}
	sum.Resumed = refSum.Resumed
	if !reflect.DeepEqual(sum, refSum) {
		t.Errorf("resumed summary diverges:\nresumed:   %+v\nreference: %+v", sum, refSum)
	}

	if refSum.Keys != litmus.KeysHashed {
		t.Errorf("keys = %q, want %q: -checkpoint alone selects no key mode", refSum.Keys, litmus.KeysHashed)
	}

	// The key mode on resume is the file's: a hashed one resumes hashed
	// under -compress, a collapsed one resumes collapsed with or without
	// the flag.
	out.Reset()
	if code := runFile(scenario, litmus.Options{Collapse: true}, fileCkpt{dir: ckpt, every: 50, resume: true}, nil, true, &out); code != 1 {
		t.Fatalf("hashed checkpoint resumed under -compress: exit code %d, want 1\n%s", code, out.String())
	}
	sum = fileSummary{}
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Keys != litmus.KeysHashed || sum.States != refSum.States || sum.Violations != refSum.Violations {
		t.Errorf("hashed resume under -compress: keys=%q states=%d violations=%d, want %q %d %d",
			sum.Keys, sum.States, sum.Violations, litmus.KeysHashed, refSum.States, refSum.Violations)
	}
	ckptC := filepath.Join(t.TempDir(), "ckpt")
	if code := runFile(scenario, litmus.Options{Collapse: true}, fileCkpt{dir: ckptC, every: 50}, nil, true, io.Discard); code != 1 {
		t.Fatalf("checkpointed -compress run: exit code %d, want 1", code)
	}
	out.Reset()
	if code := runFile(scenario, litmus.Options{}, fileCkpt{dir: ckptC, every: 50, resume: true}, nil, true, &out); code != 1 {
		t.Fatalf("collapsed checkpoint resumed without -compress: exit code %d, want 1\n%s", code, out.String())
	}
	sum = fileSummary{}
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Keys != litmus.KeysCollapsed || sum.States != refSum.States || sum.Violations != refSum.Violations {
		t.Errorf("collapsed resume: keys=%q states=%d violations=%d, want %q %d %d",
			sum.Keys, sum.States, sum.Violations, litmus.KeysCollapsed, refSum.States, refSum.Violations)
	}

	// Resuming a directory with no checkpoint is an operator error, not
	// a silent fresh run.
	empty := filepath.Join(t.TempDir(), "empty")
	if code := runFile(scenario, litmus.Options{}, fileCkpt{dir: empty, resume: true}, nil, true, io.Discard); code != 2 {
		t.Errorf("resume from empty dir: exit code %d, want 2", code)
	}
}

// TestRunFileOnExamples sweeps the checked-in corpus through the same
// entry point the CLI uses; every example must compile and check clean.
func TestRunFileOnExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.litmus"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			want := 0
			// The unfenced protocol variants are checked-in violation
			// demonstrations; the CLI reports those as exit 1.
			if strings.Contains(f, "nofence") {
				want = 1
			}
			var out bytes.Buffer
			if code := runFile(f, litmus.Options{Reduction: true}, fileCkpt{}, nil, false, &out); code != want {
				t.Errorf("exit code %d, want %d\noutput:\n%s", code, want, out.String())
			}
		})
	}
}

// mpSource is message passing with its forbid line: safe under TSO,
// violated under PSO. config is the inside of its config block.
func mpSource(config string) string {
	return `litmus "mp"
config { ` + config + ` }
shared x @ 4, y @ 5
thread "w" {
  storei [x], 1
  storei [y], 1
  halt
}
thread "r" {
  load r1, [y]
  load r2, [x]
  halt
}
forbid P1:r1=1 & P1:r2=0
`
}

// TestRunFileModel: a file's config { model } selects the model the
// file is explored under, and an explicit -model replaces it in either
// direction; the -json summary reports the model that ran.
func TestRunFileModel(t *testing.T) {
	tsoFile := writeScenario(t, mpSource("memwords 16 sbdepth 4"))
	psoFile := writeScenario(t, mpSource("memwords 16 sbdepth 4 model pso"))
	tsoFlag, psoFlag := arch.TSO, arch.PSO
	cases := []struct {
		name      string
		file      string
		flag      *arch.MemModel
		wantCode  int
		wantModel string
	}{
		{"tso file", tsoFile, nil, 0, "tso"},
		{"pso file", psoFile, nil, 1, "pso"},
		{"tso file, -model pso", tsoFile, &psoFlag, 1, "pso"},
		{"pso file, -model tso", psoFile, &tsoFlag, 0, "tso"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := runFile(tc.file, litmus.Options{}, fileCkpt{}, tc.flag, true, &out); code != tc.wantCode {
				t.Fatalf("exit code %d, want %d\n%s", code, tc.wantCode, out.String())
			}
			var sum fileSummary
			if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			if sum.Model != tc.wantModel {
				t.Errorf("summary model = %q, want %q", sum.Model, tc.wantModel)
			}
		})
	}
}
