package syntax

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/tso"
)

// The parser: recursive descent over the token stream, producing a
// *File. It never panics — every malformed input returns a positioned
// error (the parser-robustness fuzz target pins that down).

// Limits keeping hostile inputs (the fuzzer's job is to find them)
// from ballooning compile time or machine size.
const (
	maxThreads     = 64
	maxInstrs      = 4096
	maxSharedWords = 1 << 16
	maxMemWords    = arch.MaxMemWords // fingerprints hold addresses in two bytes
	maxSBDepth     = 256
	maxLinks       = 8
)

type parser struct {
	lex *lexer
	tok token // one-token lookahead
	err error

	// expectLines holds the source line of each File.Expect entry, for
	// the checks that run once every thread is known.
	expectLines []int
}

// Parse parses litmus-DSL source into its AST.
func Parse(src string) (*File, error) {
	p := &parser{lex: newLexer(src)}
	p.advance()
	f, err := p.file()
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	t, err := p.lex.next()
	if err != nil {
		p.err = err
		p.tok = token{kind: tokEOF, line: p.tok.line}
		return
	}
	p.tok = t
}

func (p *parser) errorf(format string, args ...any) error {
	return p.lex.errorf(p.tok.line, format, args...)
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.err != nil {
		return token{}, p.err
	}
	if p.tok.kind != k {
		return token{}, p.errorf("expected %s in %s, got %s", k, what, p.tok.describe())
	}
	t := p.tok
	p.advance()
	return t, p.err
}

func (p *parser) file() (*File, error) {
	f := &File{}
	sawName := false
	for {
		if p.err != nil {
			return nil, p.err
		}
		if p.tok.kind == tokEOF {
			break
		}
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected a top-level declaration, got %s", p.tok.describe())
		}
		switch p.tok.text {
		case "litmus":
			if sawName {
				return nil, p.errorf("duplicate litmus declaration")
			}
			sawName = true
			p.advance()
			t, err := p.expect(tokString, "litmus declaration")
			if err != nil {
				return nil, err
			}
			f.Name = t.str
		case "config":
			if err := p.config(f); err != nil {
				return nil, err
			}
		case "shared":
			if err := p.shared(f); err != nil {
				return nil, err
			}
		case "thread":
			if err := p.thread(f); err != nil {
				return nil, err
			}
		case "forbid":
			if err := p.forbid(f); err != nil {
				return nil, err
			}
		case "expect":
			if err := p.expectation(f); err != nil {
				return nil, err
			}
		case "assert":
			p.advance()
			t, err := p.expect(tokIdent, "assert declaration")
			if err != nil {
				return nil, err
			}
			if t.text != "mutex" {
				return nil, p.lex.errorf(t.line, "unknown assertion %q (only \"mutex\")", t.text)
			}
			if f.Assert.Kind == AssertForbid {
				return nil, p.lex.errorf(t.line, "assert mutex conflicts with forbid declarations")
			}
			f.Assert.Kind = AssertMutex
		default:
			return nil, p.errorf("unknown top-level declaration %q", p.tok.text)
		}
	}
	if len(f.Threads) == 0 {
		return nil, p.errorf("a litmus file needs at least one thread block")
	}
	for i, e := range f.Expect {
		for _, c := range e.Outcome {
			if c.Proc >= len(f.Threads) {
				return nil, p.lex.errorf(p.expectLines[i], "expect condition %s names processor %d, but the file has %d threads",
					c, c.Proc, len(f.Threads))
			}
		}
	}
	return f, nil
}

// config parses "config { key value ... }".
func (p *parser) config(f *File) error {
	p.advance() // "config"
	if _, err := p.expect(tokLBrace, "config block"); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		if p.err != nil {
			return p.err
		}
		key, err := p.expect(tokIdent, "config block")
		if err != nil {
			return err
		}
		switch key.text {
		case "memwords", "sbdepth", "links":
			t, err := p.expect(tokInt, key.text+" option")
			if err != nil {
				return err
			}
			n := int(t.ival)
			var max int
			var dst **int
			switch key.text {
			case "memwords":
				dst, max = &f.Config.MemWords, maxMemWords
			case "sbdepth":
				dst, max = &f.Config.SBDepth, maxSBDepth
			default:
				dst, max = &f.Config.Links, maxLinks
			}
			if n < 1 || n > max {
				return p.lex.errorf(t.line, "%s must be in 1..%d, got %d", key.text, max, n)
			}
			if *dst != nil {
				return p.lex.errorf(key.line, "duplicate %s option", key.text)
			}
			v := n
			*dst = &v
		case "protocol":
			t, err := p.expect(tokIdent, "protocol option")
			if err != nil {
				return err
			}
			var proto arch.Protocol
			switch strings.ToUpper(t.text) {
			case "MESI":
				proto = arch.MESI
			case "MSI":
				proto = arch.MSI
			case "MOESI":
				proto = arch.MOESI
			default:
				return p.lex.errorf(t.line, "unknown protocol %q (want MESI, MSI, or MOESI)", t.text)
			}
			if f.Config.Protocol != nil {
				return p.lex.errorf(key.line, "duplicate protocol option")
			}
			f.Config.Protocol = &proto
		case "model":
			t, err := p.expect(tokIdent, "model option")
			if err != nil {
				return err
			}
			model, perr := arch.ParseMemModel(strings.ToLower(t.text))
			if perr != nil {
				return p.lex.errorf(t.line, "unknown memory model %q (want tso or pso)", t.text)
			}
			if f.Config.Model != nil {
				return p.lex.errorf(key.line, "duplicate model option")
			}
			f.Config.Model = &model
		default:
			return p.lex.errorf(key.line, "unknown config option %q", key.text)
		}
	}
	p.advance() // '}'
	return p.err
}

// shared parses "shared name [@ addr] {, name [@ addr]}".
func (p *parser) shared(f *File) error {
	p.advance() // "shared"
	for {
		t, err := p.expect(tokIdent, "shared declaration")
		if err != nil {
			return err
		}
		d := SharedDecl{Name: t.text, Line: t.line}
		if p.tok.kind == tokAt {
			p.advance()
			a, err := p.expect(tokInt, "shared address")
			if err != nil {
				return err
			}
			if a.ival < 0 || a.ival >= maxSharedWords {
				return p.lex.errorf(a.line, "shared address %d out of range [0, %d)", a.ival, maxSharedWords)
			}
			d.Addr = arch.Addr(a.ival)
			d.HasAddr = true
		}
		f.Shared = append(f.Shared, d)
		if p.tok.kind != tokComma {
			return p.err
		}
		p.advance()
	}
}

// thread parses `thread ["name"] { stmts }`.
func (p *parser) thread(f *File) error {
	line := p.tok.line
	p.advance() // "thread"
	if len(f.Threads) >= maxThreads {
		return p.lex.errorf(line, "too many threads (max %d)", maxThreads)
	}
	th := Thread{Line: line}
	if p.tok.kind == tokString {
		th.Name = p.tok.str
		p.advance()
	}
	if _, err := p.expect(tokLBrace, "thread block"); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		if p.err != nil {
			return p.err
		}
		if len(th.Stmts) > maxInstrs {
			return p.errorf("thread block too long (max %d statements)", maxInstrs)
		}
		st, err := p.stmt()
		if err != nil {
			return err
		}
		th.Stmts = append(th.Stmts, st)
	}
	p.advance() // '}'
	f.Threads = append(f.Threads, th)
	return p.err
}

// stmt parses one label line or instruction inside a thread block.
func (p *parser) stmt() (Stmt, error) {
	t, err := p.expect(tokIdent, "thread block")
	if err != nil {
		return Stmt{}, err
	}
	// "name:" defines a label.
	if p.tok.kind == tokColon {
		p.advance()
		return Stmt{Label: t.text, Line: t.line}, p.err
	}

	st := Stmt{Op: strings.ToLower(t.text), Line: t.line}
	sig, ok := opSignatures[st.Op]
	if !ok {
		return Stmt{}, p.lex.errorf(t.line, "unknown instruction %q", t.text)
	}
	for i, kind := range sig {
		if i > 0 {
			if _, err := p.expect(tokComma, st.Op+" operands"); err != nil {
				return Stmt{}, err
			}
		}
		opnd, err := p.operand(kind, st.Op)
		if err != nil {
			return Stmt{}, err
		}
		st.Operands = append(st.Operands, opnd)
	}
	// Optional trailing note.
	if p.tok.kind == tokString {
		st.Note = p.tok.str
		p.advance()
	}
	return st, p.err
}

// operand parses one operand of the given expected kind.
func (p *parser) operand(kind OperandKind, op string) (Operand, error) {
	switch kind {
	case OpndReg:
		t, err := p.expect(tokIdent, op+" register operand")
		if err != nil {
			return Operand{}, err
		}
		r, ok := parseReg(t.text)
		if !ok {
			return Operand{}, p.lex.errorf(t.line, "%s: bad register %q (want r0..r%d)", op, t.text, tso.NumRegs-1)
		}
		return Operand{Kind: OpndReg, Reg: r}, nil

	case OpndInt:
		t, err := p.expect(tokInt, op+" immediate operand")
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpndInt, Int: t.ival}, nil

	case OpndAddr:
		if _, err := p.expect(tokLBrack, op+" address operand"); err != nil {
			return Operand{}, err
		}
		o := Operand{Kind: OpndAddr}
		switch p.tok.kind {
		case tokIdent:
			o.Sym = p.tok.text
			p.advance()
		case tokInt:
			if p.tok.ival < 0 || p.tok.ival >= maxSharedWords {
				return Operand{}, p.errorf("%s: address %d out of range [0, %d)", op, p.tok.ival, maxSharedWords)
			}
			o.Addr = arch.Addr(p.tok.ival)
			p.advance()
		default:
			return Operand{}, p.errorf("%s: expected a shared name or address, got %s", op, p.tok.describe())
		}
		if p.tok.kind == tokPlus {
			p.advance()
			t, err := p.expect(tokIdent, op+" index register")
			if err != nil {
				return Operand{}, err
			}
			r, ok := parseReg(t.text)
			if !ok {
				return Operand{}, p.lex.errorf(t.line, "%s: bad index register %q", op, t.text)
			}
			o.Indexed = true
			o.Reg = r
		}
		if _, err := p.expect(tokRBrack, op+" address operand"); err != nil {
			return Operand{}, err
		}
		return o, nil

	case OpndLabel:
		if _, err := p.expect(tokAt, op+" branch target"); err != nil {
			return Operand{}, err
		}
		t, err := p.expect(tokIdent, op+" branch target")
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpndLabel, Sym: t.text}, nil
	}
	return Operand{}, p.errorf("%s: unhandled operand kind", op)
}

// forbid parses "forbid P0:r0=0 & P1:r1=2 ...".
func (p *parser) forbid(f *File) error {
	line := p.tok.line
	p.advance() // "forbid"
	if f.Assert.Kind == AssertMutex {
		return p.lex.errorf(line, "forbid conflicts with assert mutex")
	}
	conj, err := p.conj("forbid condition")
	if err != nil {
		return err
	}
	f.Assert.Kind = AssertForbid
	f.Assert.Forbidden = append(f.Assert.Forbidden, conj)
	return p.err
}

// expectation parses "expect tso|pso allow|forbid P0:r0=0 & ...". A file
// states at most one line per model, and every line names the same
// outcome, conditions in the same order.
func (p *parser) expectation(f *File) error {
	line := p.tok.line
	p.advance() // "expect"
	mt, err := p.expect(tokIdent, "expect declaration")
	if err != nil {
		return err
	}
	model, perr := arch.ParseMemModel(strings.ToLower(mt.text))
	if perr != nil {
		return p.lex.errorf(mt.line, "unknown memory model %q in expect (want tso or pso)", mt.text)
	}
	vt, err := p.expect(tokIdent, "expect declaration")
	if err != nil {
		return err
	}
	if vt.text != "allow" && vt.text != "forbid" {
		return p.lex.errorf(vt.line, "expect wants allow or forbid, got %q", vt.text)
	}
	e := Expect{Model: model, Allow: vt.text == "allow"}
	if e.Outcome, err = p.conj("expect condition"); err != nil {
		return err
	}
	for i, prev := range f.Expect {
		if prev.Model == model {
			return p.lex.errorf(line, "duplicate expect for model %s (first at line %d)", model, p.expectLines[i])
		}
		if !slices.Equal(prev.Outcome, e.Outcome) {
			return p.lex.errorf(line, "expect outcome %s differs from the one at line %d (%s)",
				e.Outcome, p.expectLines[i], prev.Outcome)
		}
	}
	f.Expect = append(f.Expect, e)
	p.expectLines = append(p.expectLines, line)
	return p.err
}

// conj parses "P<n>:r<k>=<v> {& P<n>:r<k>=<v>}".
func (p *parser) conj(what string) (Conj, error) {
	var conj Conj
	for {
		c, err := p.cond(what)
		if err != nil {
			return nil, err
		}
		conj = append(conj, c)
		if p.tok.kind != tokAmp {
			return conj, p.err
		}
		p.advance()
	}
}

// cond parses "P<n>:r<k>=<v>"; what names the construct in errors.
func (p *parser) cond(what string) (Cond, error) {
	t, err := p.expect(tokIdent, what)
	if err != nil {
		return Cond{}, err
	}
	proc, ok := parsePrefixed(t.text, 'P')
	if !ok || proc >= maxThreads {
		return Cond{}, p.lex.errorf(t.line, "bad processor %q in %s (want P0, P1, ...)", t.text, what)
	}
	if _, err := p.expect(tokColon, what); err != nil {
		return Cond{}, err
	}
	rt, err := p.expect(tokIdent, what)
	if err != nil {
		return Cond{}, err
	}
	reg, ok := parseReg(rt.text)
	if !ok {
		return Cond{}, p.lex.errorf(rt.line, "bad register %q in %s", rt.text, what)
	}
	if _, err := p.expect(tokEq, what); err != nil {
		return Cond{}, err
	}
	vt, err := p.expect(tokInt, what)
	if err != nil {
		return Cond{}, err
	}
	return Cond{Proc: proc, Reg: reg, Val: arch.Word(vt.ival)}, nil
}

// parseReg parses "rN" with N in [0, NumRegs).
func parseReg(s string) (tso.Reg, bool) {
	n, ok := parsePrefixed(s, 'r')
	if !ok || n >= tso.NumRegs {
		return 0, false
	}
	return tso.Reg(n), true
}

// parsePrefixed parses "<prefix><decimal>" (e.g. "r3", "P1").
func parsePrefixed(s string, prefix byte) (int, bool) {
	if len(s) < 2 || s[0] != prefix {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || (len(s) > 2 && s[1] == '0') {
		return 0, false
	}
	return n, true
}

// opSignatures maps each mnemonic to its operand kinds in source order.
// Mnemonics match tso.Op.String() so disassembled programs reparse; the
// lmfence/lmfence.r macros additionally expand at compile time.
var opSignatures = map[string][]OperandKind{
	"nop":         nil,
	"halt":        nil,
	"mfence":      nil,
	"linkbranch":  nil,
	"cs.enter":    nil,
	"cs.exit":     nil,
	"loadi":       {OpndReg, OpndInt},
	"load":        {OpndReg, OpndAddr},
	"loadidx":     {OpndReg, OpndAddr},
	"le":          {OpndReg, OpndAddr},
	"store":       {OpndAddr, OpndReg},
	"storei":      {OpndAddr, OpndInt},
	"storeidx":    {OpndAddr, OpndReg},
	"st.linked":   {OpndAddr, OpndInt},
	"st.linked.r": {OpndAddr, OpndReg},
	"linkbegin":   {OpndAddr},
	"add":         {OpndReg, OpndReg, OpndReg},
	"sub":         {OpndReg, OpndReg, OpndReg},
	"addi":        {OpndReg, OpndReg, OpndInt},
	"beq":         {OpndReg, OpndInt, OpndLabel},
	"bne":         {OpndReg, OpndInt, OpndLabel},
	"blt":         {OpndReg, OpndReg, OpndLabel},
	"jmp":         {OpndLabel},
	"lmfence":     {OpndAddr, OpndInt, OpndReg},
	"lmfence.r":   {OpndAddr, OpndReg, OpndReg},
}
