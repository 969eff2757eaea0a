// Package syntax is the front end of the textual litmus language: a
// small DSL for writing multiprocessor litmus tests and protocol
// attempts — named shared words, per-thread instruction blocks with
// labels and branches, mfence / l-mfence, assertions (forbidden quiesced
// outcomes, mutual exclusion of critical sections) and expectations.
// It holds the lexer, the parser producing an AST, the lowering of the
// AST through tso.Builder to per-processor tso.Programs plus an
// arch.Config, and a renderer that emits parseable source from lowered
// programs so that programs round-trip (tso's Program.Disasm produces
// the thread-body dialect this package parses). It imports only the
// standard library, arch and tso: package litmuslang compiles the
// assertions to properties, and package litmus reads its catalog of
// classic shapes through this package.
//
// A file looks like:
//
//	litmus "sb"
//	config { sbdepth 4 }
//	shared x
//	shared y
//
//	thread "sb0" {
//	  storei [x], 1
//	  load r0, [y]
//	  halt
//	}
//	thread "sb1" {
//	  storei [y], 1
//	  load r0, [x]
//	  halt
//	}
//
//	forbid P0:r0=0 & P1:r0=0
//	expect tso forbid P0:r0=0 & P1:r0=0
//
// Memory starts zeroed (as everywhere in this repository). Shared
// declarations bind a name to a word address — explicitly with
// "shared x @ 5", otherwise the next free word. Bracketed operands
// accept either a shared name or a literal address. "assert mutex"
// declares the mutual-exclusion property over cs.enter/cs.exit blocks;
// "forbid" lines (one conjunction each, several lines disjoin) declare
// a forbidden quiesced outcome. The "lmfence [x], v, rD" and
// "lmfence.r [x], rA, rD" macros expand to the four-instruction
// Fig. 3(b) translation exactly as tso.Builder.Lmfence emits it.
//
// "expect tso|pso allow|forbid <conditions>" states whether the named
// quiesced outcome (the forbid condition grammar) is reachable under
// one memory model. It is metadata only: it never becomes a property,
// so a checker's verdict on the file does not depend on it. A file has
// at most one expect line per model, every line names the same outcome
// with its conditions in the same order, and each condition names one
// of the file's threads. The litmus.Catalog entries are the examples/
// files named in its catalogFiles list, each of which must carry both
// a tso and a pso expect line.
package syntax

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/tso"
)

// File is the parsed form of one .litmus source file.
type File struct {
	// Name is the litmus test's declared name ("" when the litmus line
	// is absent).
	Name string

	// Config holds the explicitly set machine options; nil fields keep
	// their defaults at compile time.
	Config ConfigDecl

	// Shared lists the shared-word declarations in source order.
	Shared []SharedDecl

	// Threads lists the per-processor instruction blocks in source
	// order; thread i runs on processor i.
	Threads []Thread

	// Assert is the declared property (zero value: none).
	Assert Assert

	// Expect lists the expect lines in source order.
	Expect []Expect
}

// ConfigDecl carries the config-block options; pointers distinguish
// "absent" from an explicit zero.
type ConfigDecl struct {
	MemWords *int
	SBDepth  *int
	Links    *int
	Protocol *arch.Protocol
	Model    *arch.MemModel
}

// SharedDecl binds a name to a word address. HasAddr marks an explicit
// "@ addr"; otherwise the compiler assigns the next free word.
type SharedDecl struct {
	Name    string
	Addr    arch.Addr
	HasAddr bool
	Line    int
}

// Thread is one processor's instruction block.
type Thread struct {
	// Name labels the compiled tso.Program; defaults to "p<index>".
	Name  string
	Stmts []Stmt
	Line  int
}

// Stmt is one line of a thread block: either a label definition or an
// instruction.
type Stmt struct {
	// Label is non-empty for a "name:" line (Instr is then unused).
	Label string

	// Op is the instruction mnemonic as written ("storei", "lmfence",
	// "cs.enter", ...).
	Op string

	// Operands are the parsed operands in source order.
	Operands []Operand

	// Note is the optional trailing quoted annotation.
	Note string

	Line int
}

// OperandKind distinguishes the operand forms.
type OperandKind uint8

const (
	// OpndReg is a register rN.
	OpndReg OperandKind = iota
	// OpndInt is an integer literal (immediate).
	OpndInt
	// OpndAddr is a bracketed address: [name], [0x4], or indexed
	// [name+rN] / [0x4+rN].
	OpndAddr
	// OpndLabel is a branch target @name.
	OpndLabel
)

// Operand is one parsed operand.
type Operand struct {
	Kind OperandKind

	// Reg is the register for OpndReg, and the index register for an
	// indexed OpndAddr (Indexed true).
	Reg tso.Reg

	// Int is the literal for OpndInt.
	Int int64

	// Sym is the shared name for a symbolic OpndAddr ("" when the
	// address was written as a literal, which is then in Addr), and the
	// target label for OpndLabel.
	Sym string

	// Addr is the literal address for a non-symbolic OpndAddr.
	Addr arch.Addr

	// Indexed marks an [base+rN] address operand.
	Indexed bool
}

// AssertKind is the declared property kind.
type AssertKind uint8

const (
	// AssertNone: the file declares no property.
	AssertNone AssertKind = iota
	// AssertMutex: mutual exclusion over cs.enter/cs.exit blocks.
	AssertMutex
	// AssertForbid: the listed quiesced outcomes must be unreachable.
	AssertForbid
)

// Cond is one conjunct of a forbid or expect outcome: processor Proc
// quiesces with register Reg holding Val.
type Cond struct {
	Proc int
	Reg  tso.Reg
	Val  arch.Word
}

func (c Cond) String() string {
	return fmt.Sprintf("P%d:r%d=%d", c.Proc, c.Reg, int64(c.Val))
}

// Conj is a conjunction of conditions: one forbid or expect outcome.
type Conj []Cond

// String renders the conjunction as the source spells it.
func (conj Conj) String() string {
	parts := make([]string, len(conj))
	for i, c := range conj {
		parts[i] = c.String()
	}
	return strings.Join(parts, " & ")
}

// Assert is the declared property: for AssertForbid, Forbidden is a
// disjunction of conjunctions (one inner slice per forbid line).
type Assert struct {
	Kind      AssertKind
	Forbidden []Conj
}

// Expect is one expect line: whether Outcome, a quiesced outcome, is
// reachable (Allow) under Model.
type Expect struct {
	Model   arch.MemModel
	Allow   bool
	Outcome Conj
}

func (e Expect) String() string {
	verdict := "forbid"
	if e.Allow {
		verdict = "allow"
	}
	return fmt.Sprintf("expect %s %s %s", e.Model, verdict, e.Outcome)
}
