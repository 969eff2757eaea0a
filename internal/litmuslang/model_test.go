package litmuslang_test

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmuslang"
)

// mpPSOSource is the message-passing test with the PSO model selected
// in its config: safe under TSO, violating under per-address buffers.
const mpPSOSource = `
litmus "mp-pso"
config { sbdepth 4 model pso }
shared data, flag

thread "producer" {
  storei [data], 1
  storei [flag], 1
  halt
}
thread "consumer" {
  load r0, [flag]
  load r1, [data]
  halt
}

forbid P1:r0=1 & P1:r1=0
`

// TestModelConfigRoundTrip: config { model pso } must survive the
// parse → compile → render → recompile cycle, and the selected model
// must actually reach the engine — the compiled MP scenario violates
// its forbid line under its own config but is safe with the model
// forced back to TSO.
func TestModelConfigRoundTrip(t *testing.T) {
	c := compileOK(t, mpPSOSource)
	if c.Config.Model != arch.PSO {
		t.Fatalf("compiled Model = %v, want PSO", c.Config.Model)
	}
	src := c.Render()
	if !strings.Contains(src, "model pso") {
		t.Fatalf("Render lost the model selection:\n%s", src)
	}
	back := compileOK(t, src)
	if back.Config != c.Config {
		t.Fatalf("re-compiled config %+v differs from %+v", back.Config, c.Config)
	}

	pso := litmus.ExploreSerial(c.Build, litmus.Options{Properties: c.Properties()})
	if pso.Violations == 0 {
		t.Error("MP with config model pso did not violate under its own model")
	}
	forced := *c
	forced.Config.Model = arch.TSO
	tso := litmus.ExploreSerial(forced.Build, litmus.Options{Properties: c.Properties()})
	if tso.Violations != 0 {
		t.Error("MP violated under TSO — the scenario no longer isolates the model")
	}
}

// The default stays TSO, and an unconfigured file renders without a
// model clause (so pre-model sources round-trip byte-identically).
func TestModelConfigDefaultsToTSO(t *testing.T) {
	c := compileOK(t, sbSource)
	if c.Config.Model != arch.TSO {
		t.Fatalf("default Model = %v, want TSO", c.Config.Model)
	}
	if src := c.Render(); strings.Contains(src, "model") {
		t.Fatalf("Render emitted a model clause for a TSO file:\n%s", src)
	}
}

func TestModelConfigParseErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"unknown model", "config { model weird }\nthread { halt }", "unknown memory model"},
		{"duplicate model", "config { model pso model tso }\nthread { halt }", "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := litmuslang.Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.frag)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("Parse(%q) error %q, want fragment %q", tc.src, err, tc.frag)
			}
		})
	}
}
