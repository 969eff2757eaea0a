package litmuslang_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmuslang"
	"repro/internal/tso"
)

// sbSource is the store-buffering litmus test from the package
// documentation: the canonical TSO relaxation.
const sbSource = `
litmus "sb"
config { sbdepth 4 }
shared x
shared y

thread "sb0" {
  storei [x], 1
  load r0, [y]
  halt
}
thread "sb1" {
  storei [y], 1
  load r0, [x]
  halt
}

forbid P0:r0=0 & P1:r0=0
`

func compileOK(t *testing.T, src string) *litmuslang.Compiled {
	t.Helper()
	c, err := litmuslang.CompileSource(src)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	return c
}

func explore(c *litmuslang.Compiled) litmus.Result {
	return litmus.ExploreSerial(c.Build, litmus.Options{Properties: c.Properties()})
}

func TestParseSB(t *testing.T) {
	f, err := litmuslang.Parse(sbSource)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Name != "sb" {
		t.Errorf("Name = %q, want sb", f.Name)
	}
	if f.Config.SBDepth == nil || *f.Config.SBDepth != 4 {
		t.Errorf("SBDepth = %v, want 4", f.Config.SBDepth)
	}
	if len(f.Shared) != 2 || f.Shared[0].Name != "x" || f.Shared[1].Name != "y" {
		t.Errorf("Shared = %+v", f.Shared)
	}
	if len(f.Threads) != 2 || f.Threads[0].Name != "sb0" || len(f.Threads[0].Stmts) != 3 {
		t.Errorf("Threads = %+v", f.Threads)
	}
	if f.Assert.Kind != litmuslang.AssertForbid || len(f.Assert.Forbidden) != 1 || len(f.Assert.Forbidden[0]) != 2 {
		t.Errorf("Assert = %+v", f.Assert)
	}
}

func TestCompileSBFindsRelaxation(t *testing.T) {
	c := compileOK(t, sbSource)
	if c.Config.Procs != 2 || c.Config.MemWords != 16 || c.Config.StoreBufferDepth != 4 {
		t.Fatalf("config = %+v", c.Config)
	}
	if c.Shared["x"] != 0 || c.Shared["y"] != 1 {
		t.Fatalf("shared = %v", c.Shared)
	}
	res := explore(c)
	if res.Violations == 0 {
		t.Fatalf("SB under TSO must reach the forbidden r0=0/r0=0 outcome; result %+v", res)
	}
	if !res.HasOutcome(0, "r0=0") {
		t.Errorf("missing relaxed outcome in %v", res.SortedOutcomes())
	}
}

func TestCompileSBFencedIsSafe(t *testing.T) {
	src := strings.ReplaceAll(sbSource, "storei [x], 1\n", "storei [x], 1\n  mfence\n")
	src = strings.ReplaceAll(src, "storei [y], 1\n", "storei [y], 1\n  mfence\n")
	res := explore(compileOK(t, src))
	if res.Violations != 0 {
		t.Fatalf("SB+mfence must not reach the forbidden outcome: %v", res.FirstViolation)
	}
}

func TestLmfenceMacroExpansion(t *testing.T) {
	c := compileOK(t, `
shared x
thread { lmfence [x], 1, r7
  halt }
`)
	want := tso.NewBuilder("p0").Lmfence(0, 1, 7).Halt().Build()
	if !reflect.DeepEqual(c.Programs[0].Instrs, want.Instrs) {
		t.Fatalf("lmfence macro:\n got %v\nwant %v", c.Programs[0].Instrs, want.Instrs)
	}

	// And the register-valued form.
	c = compileOK(t, `
shared x
thread { loadi r3, 2
  lmfence.r [x], r3, r7
  halt }
`)
	want = tso.NewBuilder("p0").LoadI(3, 2).LmfenceReg(0, 3, 7).Halt().Build()
	if !reflect.DeepEqual(c.Programs[0].Instrs, want.Instrs) {
		t.Fatalf("lmfence.r macro:\n got %v\nwant %v", c.Programs[0].Instrs, want.Instrs)
	}
}

func TestSBLmfenceIsSafe(t *testing.T) {
	// Figure 3(a) shape on the SB skeleton: the primary guards its store
	// with l-mfence, the secondary keeps a full mfence.
	res := explore(compileOK(t, `
litmus "sb+lmfence"
shared x, y
thread "primary" {
  lmfence [x], 1, r7
  load r0, [y]
  halt
}
thread "secondary" {
  storei [y], 1
  mfence
  load r0, [x]
  halt
}
forbid P0:r0=0 & P1:r0=0
`))
	if res.Violations != 0 {
		t.Fatalf("SB+lmfence must not reach the forbidden outcome: %v", res.FirstViolation)
	}
}

func TestMutexAssertion(t *testing.T) {
	// Unfenced Dekker attempt: mutual exclusion fails under TSO.
	dekker := func(fence string) string {
		return `
litmus "dekker"
shared l1, l2
thread {
  storei [l1], 1
` + fence + `
  load r0, [l2]
  bne r0, 0, @done
  cs.enter
  cs.exit
done:
  halt
}
thread {
  storei [l2], 1
` + fence + `
  load r0, [l1]
  bne r0, 0, @done
  cs.enter
  cs.exit
done:
  halt
}
assert mutex
`
	}
	if res := explore(compileOK(t, dekker(""))); res.Violations == 0 {
		t.Fatalf("unfenced Dekker must violate mutual exclusion")
	}
	if res := explore(compileOK(t, dekker("  mfence"))); res.Violations != 0 {
		t.Fatalf("fenced Dekker must keep mutual exclusion: %v", res.FirstViolation)
	}
}

func TestSharedResolution(t *testing.T) {
	c := compileOK(t, `
shared a @ 3, b, c @ 0, d
thread { store [d], r1
  halt }
`)
	want := map[string]arch.Addr{"a": 3, "b": 1, "c": 0, "d": 2}
	if !reflect.DeepEqual(c.Shared, want) {
		t.Fatalf("shared = %v, want %v", c.Shared, want)
	}
}

func TestConfigSizing(t *testing.T) {
	// Memory auto-sizes past the 16-word floor to cover static addresses.
	c := compileOK(t, `
thread { storei [0x20], 7
  halt }
`)
	if c.Config.MemWords != 0x21 {
		t.Fatalf("MemWords = %d, want %d", c.Config.MemWords, 0x21)
	}

	// The floor applies when everything fits.
	c = compileOK(t, `
thread { storei [2], 7
  halt }
`)
	if c.Config.MemWords != 16 {
		t.Fatalf("MemWords = %d, want 16", c.Config.MemWords)
	}

	// An explicit memwords must cover every static address.
	if _, err := litmuslang.CompileSource(`
config { memwords 8 }
thread { storei [9], 1
  halt }
`); err == nil {
		t.Fatalf("explicit memwords below a used address must fail")
	}
}

// TestMemWordsLimit: fingerprints encode addresses in two bytes, so the
// parser accepts exactly the memories arch.Config.Validate does.
func TestMemWordsLimit(t *testing.T) {
	if _, err := litmuslang.Parse("config { memwords 65536 }\nthread { halt }"); err != nil {
		t.Fatalf("memwords 65536 rejected: %v", err)
	}
	for _, n := range []string{"65537", "1048576"} {
		_, err := litmuslang.Parse("config { memwords " + n + " }\nthread { halt }")
		if err == nil || !strings.Contains(err.Error(), "memwords must be in 1..65536") {
			t.Fatalf("memwords %s: got %v, want the 1..65536 range error", n, err)
		}
	}
}

// TestIntegerLiteralRange: state fingerprints encode values in four
// bytes, so the lexer holds every literal to the int32 range, with the
// line of the offending token in the error.
func TestIntegerLiteralRange(t *testing.T) {
	for _, tc := range []struct {
		lit string
		ok  bool
	}{
		{"2147483647", true},
		{"0x7fffffff", true},
		{"-2147483648", true},
		{"2147483648", false},
		{"0x100000000", false},
		{"-2147483649", false},
	} {
		_, err := litmuslang.Parse("thread {\n loadi r1, " + tc.lit + "\n halt }")
		switch {
		case tc.ok && err != nil:
			t.Errorf("literal %s rejected: %v", tc.lit, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "litmus:2: integer literal "+tc.lit+" outside the 32-bit value range")):
			t.Errorf("literal %s: got %v, want a positioned 32-bit range error", tc.lit, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"empty", "", "at least one thread"},
		{"unknown decl", "frobnicate", "unknown top-level"},
		{"unknown instr", "thread { frob r0 }", "unknown instruction"},
		{"bad register", "thread { loadi r99, 0 }", "bad register"},
		{"missing comma", "thread { loadi r0 0 }", "expected ','"},
		{"unterminated thread", "thread { halt", "expected"},
		{"mutex after forbid", "thread { halt }\nforbid P0:r0=0\nassert mutex", "conflicts"},
		{"forbid after mutex", "thread { halt }\nassert mutex\nforbid P0:r0=0", "conflicts"},
		{"bad proc", "thread { halt }\nforbid Q0:r0=0", "bad processor"},
		{"bad shared addr", "shared x @ -1\nthread { halt }", "out of range"},
		{"dup config", "config { sbdepth 2 sbdepth 3 }\nthread { halt }", "duplicate"},
		{"bad protocol", "config { protocol FOO }\nthread { halt }", "unknown protocol"},
		{"unterminated string", "litmus \"x\nthread { halt }", "unterminated"},
		{"stray char", "thread { halt }\n%", "unexpected character"},
		{"leading zero reg", "thread { loadi r01, 0 }", "bad register"},
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

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"undefined label", "thread { jmp @nowhere\n halt }", "undefined label"},
		{"duplicate label", "thread { l:\n l:\n halt }", "duplicate label"},
		{"undeclared shared", "thread { load r0, [ghost]\n halt }", "undeclared shared"},
		{"duplicate shared", "shared x, x\nthread { halt }", "duplicate shared"},
		{"mutex without cs", "thread { halt }\nassert mutex", "no thread brackets"},
		{"forbid proc range", "thread { halt }\nforbid P7:r0=0", "names processor 7"},
		{"note on macro", "shared x\nthread { lmfence [x], 1, r7 \"note\"\n halt }", "not allowed on the lmfence macro"},
		{"indexed on load", "thread { load r0, [0+r1]\n halt }", "does not take an indexed address"},
		{"unindexed loadidx", "thread { loadidx r0, [0]\n halt }", "needs an indexed address"},
		{"unindexed storeidx", "thread { storeidx [0], r1\n halt }", "needs an indexed address"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := litmuslang.CompileSource(tc.src)
			if err == nil {
				t.Fatalf("CompileSource(%q) succeeded, want error containing %q", tc.src, tc.frag)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("CompileSource(%q) error %q, want fragment %q", tc.src, err, tc.frag)
			}
		})
	}
}

func TestProblemNeedsProperty(t *testing.T) {
	c := compileOK(t, "thread { halt }")
	if _, err := c.Problem(); err == nil {
		t.Fatalf("Problem() without an assertion must fail")
	}
	c = compileOK(t, sbSource)
	pr, err := c.Problem()
	if err != nil {
		t.Fatalf("Problem: %v", err)
	}
	if pr.Name != "sb" || len(pr.Programs) != 2 || pr.Property == nil {
		t.Fatalf("problem = %+v", pr)
	}
}

// TestExpectCompilesToNoProperty: expect lines are metadata. They never
// become a property and leave a forbid line's property and verdict as
// they are.
func TestExpectCompilesToNoProperty(t *testing.T) {
	if c := compileOK(t, "thread { halt }\nexpect tso allow P0:r0=0\n"); c.HasProperty() {
		t.Fatalf("expect line compiled to a property: %s", c.PropertyDoc)
	}
	without := compileOK(t, sbSource)
	with := compileOK(t, sbSource+"expect tso allow P0:r0=0 & P1:r0=0\n")
	if with.PropertyDoc != without.PropertyDoc {
		t.Fatalf("property %q, want %q", with.PropertyDoc, without.PropertyDoc)
	}
	if a, b := explore(with), explore(without); a.Violations != b.Violations || a.States != b.States {
		t.Fatalf("verdict moved: %d violations in %d states, want %d in %d", a.Violations, a.States, b.Violations, b.States)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	for _, src := range []string{
		sbSource,
		`litmus "notes"
shared x
thread {
top:
  lmfence [x], 1, r7
  addi r1, r1, 1
  blt r1, r2, @top
  halt "done"
}
forbid P0:r1=0
forbid P0:r2=1 & P0:r1=1
`,
		sbSource + `
expect TSO allow P0:r0=0 & P1:r0=0
expect pso allow P0:r0=0 & P1:r0=0
`,
	} {
		c := compileOK(t, src)
		back, err := litmuslang.CompileSource(c.Render())
		if err != nil {
			t.Fatalf("recompile rendered source: %v\nsource:\n%s", err, c.Render())
		}
		if back.Name != c.Name {
			t.Errorf("name %q != %q", back.Name, c.Name)
		}
		if !reflect.DeepEqual(back.Config, c.Config) {
			t.Errorf("config %+v != %+v", back.Config, c.Config)
		}
		if !reflect.DeepEqual(back.Assert, c.Assert) {
			t.Errorf("assert %+v != %+v", back.Assert, c.Assert)
		}
		if !reflect.DeepEqual(back.Expect, c.Expect) {
			t.Errorf("expect %v != %v", back.Expect, c.Expect)
		}
		if len(back.Programs) != len(c.Programs) {
			t.Fatalf("program count %d != %d", len(back.Programs), len(c.Programs))
		}
		for i := range c.Programs {
			if !reflect.DeepEqual(back.Programs[i], c.Programs[i]) {
				t.Errorf("program %d:\n got %+v\nwant %+v", i, back.Programs[i], c.Programs[i])
			}
		}
	}
}
