// Package litmuslang compiles the textual litmus language (the
// lexer, parser, AST, lowering and renderer live in package syntax,
// whose doc describes the language) to what the checker and the
// synthesizer consume: per-processor tso.Programs plus an arch.Config,
// as syntax lowers them, and the declared assertion as a
// litmus.Property or a synth.Problem. The front-end names are
// re-exported here so callers need one import.
package litmuslang

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmuslang/syntax"
	"repro/internal/synth"
	"repro/internal/tso"
)

// The front end's names its callers use, re-exported.
type (
	File   = syntax.File
	Assert = syntax.Assert
)

// The assertion kinds, re-exported.
const (
	AssertNone   = syntax.AssertNone
	AssertMutex  = syntax.AssertMutex
	AssertForbid = syntax.AssertForbid
)

// Parse parses litmus-DSL source into its AST.
func Parse(src string) (*File, error) { return syntax.Parse(src) }

// Render emits a complete, parseable .litmus file (see syntax.Render).
func Render(name string, cfg arch.Config, progs []*tso.Program, assert Assert) string {
	return syntax.Render(name, cfg, progs, assert)
}

// Compiled is a lowered litmus file plus — when the source declares an
// assertion — the litmus.Property it compiles to. Expect lines never
// compile to a property.
type Compiled struct {
	syntax.Unit

	// Property is the compiled assertion (nil when the file declares
	// none). PropertyDoc describes it for reports.
	Property    litmus.Property
	PropertyDoc string
}

// HasProperty reports whether the source declared an assertion.
func (c *Compiled) HasProperty() bool { return c.Property != nil }

// Properties returns the compiled property as a litmus.Options property
// slice (empty when the file declares none).
func (c *Compiled) Properties() []litmus.Property {
	if c.Property == nil {
		return nil
	}
	return []litmus.Property{c.Property}
}

// Problem adapts the compiled file into a fence-synthesis problem. It
// fails when the source declares no assertion — synthesis needs a
// property to repair against.
func (c *Compiled) Problem() (synth.Problem, error) {
	if c.Property == nil {
		return synth.Problem{}, fmt.Errorf("litmus: %s declares no property (add \"assert mutex\" or a forbid line)", c.Name)
	}
	return synth.Problem{
		Name:        c.Name,
		Programs:    c.Programs,
		Config:      c.Config,
		Property:    c.Property,
		PropertyDoc: c.PropertyDoc,
	}, nil
}

// Compile lowers a parsed file (syntax.Lower) and compiles its
// assertion. All errors are positioned; Compile never panics on any
// Parse-accepted input (the fuzz targets pin that down).
func Compile(f *File) (*Compiled, error) {
	u, err := syntax.Lower(f)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Unit: u}
	switch c.Assert.Kind {
	case AssertMutex:
		c.Property = litmus.MutualExclusion
		c.PropertyDoc = "no two processors inside their critical sections"
	case AssertForbid:
		// Copy the conditions so the property does not alias the AST.
		forbidden := make([]syntax.Conj, len(c.Assert.Forbidden))
		alts := make([]string, len(forbidden))
		for i, conj := range c.Assert.Forbidden {
			forbidden[i] = append(syntax.Conj(nil), conj...)
			alts[i] = conj.String()
		}
		c.PropertyDoc = "forbidden quiesced outcome: " + strings.Join(alts, " | ")
		c.Property = synth.ForbiddenQuiesced(c.PropertyDoc, func(m *tso.Machine) bool {
			for _, conj := range forbidden {
				hit := true
				for _, cd := range conj {
					if m.Procs[cd.Proc].Regs[cd.Reg] != cd.Val {
						hit = false
						break
					}
				}
				if hit {
					return true
				}
			}
			return false
		})
	}
	return c, nil
}

// CompileSource parses and compiles in one step.
func CompileSource(src string) (*Compiled, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}
