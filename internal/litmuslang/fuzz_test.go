package litmuslang_test

import (
	"reflect"
	"testing"

	"repro/internal/litmuslang"
)

// FuzzParse is the parser-robustness fuzz target: Parse and Compile
// must never panic, and anything that compiles must survive the
// render/recompile round trip byte-for-byte at the instruction level,
// with its config and expect lines.
// The checked-in corpus under testdata/fuzz/FuzzParse runs as part of
// the ordinary test suite.
func FuzzParse(f *testing.F) {
	f.Add(sbSource)
	f.Add(spinSource)
	f.Add("thread { halt }")
	f.Add("litmus \"x\"\nconfig { memwords 32 sbdepth 2 links 2 protocol MOESI }\nshared a @ 3, b\nthread { lmfence [a], 1, r7\n halt }\nforbid P0:r7=0\n")
	f.Add("thread {\nl:\n beq r0, 0, @l\n}")
	f.Add("thread { loadidx r0, [2+r1]\n storeidx [2+r1], r2 }")
	f.Add("# comment\nthread { nop } // trailing")
	f.Add("thread { st.linked [0], 1\n st.linked.r [0], r2\n linkbegin [0]\n le r7, [0]\n linkbranch }")
	f.Add("thread { cs.enter\n cs.exit\n halt }\nassert mutex")
	f.Add("shared x @ 65535\nthread { load r0, [x] }")

	f.Fuzz(func(t *testing.T, src string) {
		c, err := litmuslang.CompileSource(src)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		back, err := litmuslang.CompileSource(c.Render())
		if err != nil {
			t.Fatalf("accepted source rendered unparseable: %v\ninput:\n%s\nrendered:\n%s", err, src, c.Render())
		}
		if len(back.Programs) != len(c.Programs) {
			t.Fatalf("round trip changed program count: %d -> %d", len(c.Programs), len(back.Programs))
		}
		for i := range c.Programs {
			if !reflect.DeepEqual(back.Programs[i].Instrs, c.Programs[i].Instrs) {
				t.Fatalf("round trip changed program %d:\n got %v\nwant %v",
					i, back.Programs[i].Instrs, c.Programs[i].Instrs)
			}
		}
		if !reflect.DeepEqual(back.Config, c.Config) {
			t.Fatalf("round trip changed config: %+v -> %+v", c.Config, back.Config)
		}
		if !reflect.DeepEqual(back.Expect, c.Expect) {
			t.Fatalf("round trip changed expectations: %v -> %v", c.Expect, back.Expect)
		}
	})
}
