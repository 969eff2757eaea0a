package syntax

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
)

func TestExpectParses(t *testing.T) {
	// A condition may name a thread declared further down.
	f, err := Parse(`thread { halt }
expect tso forbid P0:r0=0 & P1:r1=-1
expect PSO allow P0:r0=0 & P1:r1=-1
thread { halt }
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Expect{
		{Model: arch.TSO, Allow: false, Outcome: []Cond{{Proc: 0, Reg: 0, Val: 0}, {Proc: 1, Reg: 1, Val: ^arch.Word(0)}}},
		{Model: arch.PSO, Allow: true, Outcome: []Cond{{Proc: 0, Reg: 0, Val: 0}, {Proc: 1, Reg: 1, Val: ^arch.Word(0)}}},
	}
	if !reflect.DeepEqual(f.Expect, want) {
		t.Fatalf("expect = %v, want %v", f.Expect, want)
	}
	if f.Assert.Kind != AssertNone {
		t.Fatalf("expect lines declared an assertion: %+v", f.Assert)
	}
}

// TestExpectErrors: every malformed expect line is rejected with the
// line it is on.
func TestExpectErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unknown model", "thread { halt }\nexpect sc allow P0:r0=0",
			`litmus:2: unknown memory model "sc" in expect`},
		{"second line for a model", "thread { halt }\nexpect tso allow P0:r0=0\n\nexpect tso forbid P0:r0=0",
			"litmus:4: duplicate expect for model tso (first at line 2)"},
		{"missing thread", "thread { halt }\n\nexpect tso allow P0:r0=0 & P1:r0=0",
			"litmus:3: expect condition P1:r0=0 names processor 1, but the file has 1 threads"},
		{"outcomes differ", "thread { halt }\nexpect tso allow P0:r0=0\nexpect pso allow P0:r0=1",
			"litmus:3: expect outcome P0:r0=1 differs from the one at line 2 (P0:r0=0)"},
		{"conditions reordered", "thread { halt }\nthread { halt }\nexpect tso allow P0:r0=0 & P1:r0=0\nexpect pso allow P1:r0=0 & P0:r0=0",
			"litmus:4: expect outcome P1:r0=0 & P0:r0=0 differs from the one at line 3"},
		{"outcomes differ in size", "thread { halt }\nexpect tso allow P0:r0=0\nexpect pso allow P0:r0=0 & P0:r1=0",
			"litmus:3: expect outcome P0:r0=0 & P0:r1=0 differs"},
		{"bad verdict", "thread { halt }\nexpect tso maybe P0:r0=0", `litmus:2: expect wants allow or forbid, got "maybe"`},
		{"bad condition", "thread { halt }\nexpect tso allow P0:q0=0", `litmus:2: bad register "q0" in expect condition`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse error %v, want %q", err, tc.want)
			}
		})
	}
}
