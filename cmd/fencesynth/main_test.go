package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmuslang"
	"repro/internal/synth"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(map[string]bool{"file": true, "problem": true}); err == nil ||
		!strings.Contains(err.Error(), "-file is incompatible with -problem") {
		t.Errorf("file+problem: got %v, want incompatibility error", err)
	}
	for _, set := range []map[string]bool{
		{"corpus": true, "file": true},
		{"corpus": true, "problem": true},
		{"corpus": true, "json": true},
		{"corpus-seed": true},
	} {
		if err := validateFlags(set); err == nil ||
			!strings.Contains(err.Error(), "corpus") {
			t.Errorf("invalid set %v: got %v, want a corpus incompatibility error", set, err)
		}
	}
	for _, set := range []map[string]bool{
		{},
		{"problem": true, "kind": true, "v": true},
		{"file": true, "kind": true, "ratio": true, "json": true},
		{"corpus": true, "corpus-seed": true, "corpus-journal": true, "workers": true},
	} {
		if err := validateFlags(set); err != nil {
			t.Errorf("valid set %v rejected: %v", set, err)
		}
	}
}

// TestRunCorpusHundred is the ISSUE's acceptance bar: `fencesynth
// -corpus` must repair at least 100 generated scenarios end-to-end —
// every non-unrepairable verdict backed by an exact re-verification of
// the spliced program — and exit 0.
func TestRunCorpusHundred(t *testing.T) {
	if testing.Short() {
		t.Skip("100-scenario corpus")
	}
	var out bytes.Buffer
	opts := synth.Options{PrimaryWeight: synth.DefaultPrimaryWeight}
	if code := runCorpus(100, 0, "", opts, false, &out); code != 0 {
		t.Fatalf("exit code %d, want 0\noutput:\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "exact re-verify") {
		t.Errorf("corpus table missing the re-verification note:\n%s", got)
	}
}

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

func writeScenario(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.litmus")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFileRepairsSB is the end-to-end loop the README advertises: a
// broken scenario goes in, repaired litmus source comes out, and the
// repaired source — recompiled from the emitted text alone — verifies
// safe against its own assertion.
func TestRunFileRepairsSB(t *testing.T) {
	var out bytes.Buffer
	code := runFile(writeScenario(t, sbRelaxed), synth.Options{}, nil, true, false, &out)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\noutput:\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "repaired protocol") {
		t.Fatalf("output missing repaired source:\n%s", got)
	}

	// The repaired source is everything from the litmus header on.
	i := strings.Index(got, "litmus \"sb\"")
	if i < 0 {
		t.Fatalf("no rendered litmus source in output:\n%s", got)
	}
	c, err := litmuslang.CompileSource(got[i:])
	if err != nil {
		t.Fatalf("repaired source does not recompile: %v\n%s", err, got[i:])
	}
	res := litmus.ExploreSerial(c.Build, litmus.Options{Properties: c.Properties()})
	if res.Violations != 0 || res.Truncated || res.Deadlocks != 0 {
		t.Errorf("repaired SB is not safe: violations=%d truncated=%v deadlocks=%d",
			res.Violations, res.Truncated, res.Deadlocks)
	}
}

func TestRunFileJSONCarriesRepairedSource(t *testing.T) {
	var out bytes.Buffer
	code := runFile(writeScenario(t, sbRelaxed), synth.Options{}, nil, false, true, &out)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\noutput:\n%s", code, out.String())
	}
	var jp jsonProblem
	if err := json.Unmarshal(out.Bytes(), &jp); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if jp.Problem != "sb" || jp.Optimal == nil || jp.RepairedSource == "" {
		t.Fatalf("report incomplete: %+v", jp)
	}
	if _, err := litmuslang.CompileSource(jp.RepairedSource); err != nil {
		t.Errorf("repaired_source does not recompile: %v", err)
	}
}

func TestRunFileErrors(t *testing.T) {
	if code := runFile(filepath.Join(t.TempDir(), "missing.litmus"), synth.Options{}, nil, false, false, os.Stderr); code != 2 {
		t.Errorf("missing file: exit code %d, want 2", code)
	}
	noAssert := `thread "a" { storei [0x4], 1
halt }
`
	if code := runFile(writeScenario(t, noAssert), synth.Options{}, nil, false, false, os.Stderr); code != 2 {
		t.Errorf("assertion-free file: exit code %d, want 2", code)
	}
}

// mpSource is message passing with its forbid line: safe under TSO,
// repaired by a store→store fence on the writer under PSO. config is
// the inside of its config block.
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

// TestRunFileModel: a file's config { model } selects the model every
// candidate is verified under, and an explicit -model replaces it in
// either direction, in the repaired source too.
func TestRunFileModel(t *testing.T) {
	tsoFile := writeScenario(t, mpSource("memwords 16 sbdepth 4"))
	psoFile := writeScenario(t, mpSource("memwords 16 sbdepth 4 model pso"))
	tsoFlag, psoFlag := arch.TSO, arch.PSO
	cases := []struct {
		name   string
		file   string
		flag   *arch.MemModel
		fenced bool // the optimal repair places a fence: the file ran PSO
	}{
		{"tso file", tsoFile, nil, false},
		{"pso file", psoFile, nil, true},
		{"tso file, -model pso", tsoFile, &psoFlag, true},
		{"pso file, -model tso", psoFile, &tsoFlag, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := runFile(tc.file, synth.Options{}, tc.flag, false, true, &out); code != 0 {
				t.Fatalf("exit code %d, want 0\n%s", code, out.String())
			}
			var jp jsonProblem
			if err := json.Unmarshal(out.Bytes(), &jp); err != nil {
				t.Fatal(err)
			}
			if jp.Optimal == nil {
				t.Fatalf("no optimal repair: %+v", jp)
			}
			if fenced := len(jp.Optimal.Atoms) > 0; fenced != tc.fenced {
				t.Errorf("optimal repair places fences = %v, want %v: %+v", fenced, tc.fenced, jp.Optimal)
			}
			if pso := strings.Contains(jp.RepairedSource, "model pso"); pso != tc.fenced {
				t.Errorf("repaired source declares model pso = %v, want %v:\n%s", pso, tc.fenced, jp.RepairedSource)
			}
		})
	}
}
