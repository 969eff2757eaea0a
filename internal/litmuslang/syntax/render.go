package syntax

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/tso"
)

// Render emits a complete, parseable .litmus file for the given
// programs, configuration, assertion and expect lines. Thread bodies
// come from tso.Program.Disasm, so Render(Lower(f)) round-trips:
// lowering the rendered source reproduces the same instruction slices,
// machine configuration, assertion and expectations. Addresses render
// literally (the reverse name mapping is not tracked), and the
// configuration is spelled out in full so the compiled defaults cannot
// drift.
func Render(name string, cfg arch.Config, progs []*tso.Program, assert Assert, expect ...Expect) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "litmus %s\n", strconv.Quote(name))
	fmt.Fprintf(&sb, "config { memwords %d sbdepth %d", cfg.MemWords, cfg.StoreBufferDepth)
	if cfg.Links > 0 {
		fmt.Fprintf(&sb, " links %d", cfg.Links)
	}
	if cfg.Protocol != arch.MESI {
		fmt.Fprintf(&sb, " protocol %s", cfg.Protocol)
	}
	if cfg.Model != arch.TSO {
		fmt.Fprintf(&sb, " model %s", cfg.Model)
	}
	sb.WriteString(" }\n")

	for _, p := range progs {
		sb.WriteString("\n")
		fmt.Fprintf(&sb, "thread %s {\n", strconv.Quote(p.Name))
		sb.WriteString(p.Disasm())
		sb.WriteString("}\n")
	}

	switch assert.Kind {
	case AssertMutex:
		sb.WriteString("\nassert mutex\n")
	case AssertForbid:
		sb.WriteString("\n")
		for _, conj := range assert.Forbidden {
			fmt.Fprintf(&sb, "forbid %s\n", conj)
		}
	}
	if len(expect) > 0 {
		sb.WriteString("\n")
	}
	for _, e := range expect {
		fmt.Fprintf(&sb, "%s\n", e)
	}
	return sb.String()
}

// Render emits the lowered unit back as parseable source.
func (u *Unit) Render() string {
	return Render(u.Name, u.Config, u.Programs, u.Assert, u.Expect...)
}
