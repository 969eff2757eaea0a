package syntax

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/tso"
)

// Unit is the lowered form of a litmus file: per-processor programs
// (thread i runs on processor i), the machine configuration, and the
// declared assertion and expect lines echoed from the source.
type Unit struct {
	// Name is the litmus name (the file's declared name, or "litmus").
	Name string

	// Programs are the per-processor programs in thread order.
	Programs []*tso.Program

	// Config is the machine configuration the file describes.
	Config arch.Config

	// Shared maps each declared shared name to its resolved address.
	Shared map[string]arch.Addr

	// Assert is the declared property, checked against the threads (a
	// mutex assertion needs a critical section, a forbid condition an
	// existing processor).
	Assert Assert

	// Expect lists the expect lines in source order.
	Expect []Expect
}

// Build constructs a fresh machine for exploration, in the shape
// litmus.Explore expects.
func (u *Unit) Build() *tso.Machine {
	return tso.NewMachine(u.Config, u.Programs...)
}

// Lower resolves shared names, sizes the machine, assembles each thread
// through tso.Builder, and checks the assertion against the threads.
// All errors are positioned; Lower never panics on any Parse-accepted
// input (the fuzz targets pin that down). The Unit comes back by value
// so that a caller embedding it allocates once.
func Lower(f *File) (Unit, error) {
	u := Unit{Name: f.Name, Assert: f.Assert, Expect: f.Expect}
	if u.Name == "" {
		u.Name = "litmus"
	}

	if err := resolveShared(f, &u); err != nil {
		return Unit{}, err
	}
	if err := resolveConfig(f, &u); err != nil {
		return Unit{}, err
	}

	sawCS := false
	for i, th := range f.Threads {
		prog, hasCS, err := compileThread(&u, i, th)
		if err != nil {
			return Unit{}, err
		}
		sawCS = sawCS || hasCS
		u.Programs = append(u.Programs, prog)
	}

	if err := checkAssert(f, &u, sawCS); err != nil {
		return Unit{}, err
	}
	return u, nil
}

// LowerSource parses and lowers in one step.
func LowerSource(src string) (Unit, error) {
	f, err := Parse(src)
	if err != nil {
		return Unit{}, err
	}
	return Lower(f)
}

// resolveShared binds shared names to addresses: explicit "@ addr"
// bindings first, then the remaining names get the lowest free words in
// declaration order. Distinct names may alias one address (the classic
// protocols do), but a name may only be declared once.
func resolveShared(f *File, u *Unit) error {
	u.Shared = make(map[string]arch.Addr, len(f.Shared))
	taken := make(map[arch.Addr]bool)
	for _, d := range f.Shared {
		if _, dup := u.Shared[d.Name]; dup {
			return fmt.Errorf("litmus:%d: duplicate shared name %q", d.Line, d.Name)
		}
		if d.HasAddr {
			u.Shared[d.Name] = d.Addr
			taken[d.Addr] = true
		} else {
			u.Shared[d.Name] = 0 // assigned below
		}
	}
	next := arch.Addr(0)
	for _, d := range f.Shared {
		if d.HasAddr {
			continue
		}
		for taken[next] {
			next++
		}
		u.Shared[d.Name] = next
		taken[next] = true
		next++
	}
	return nil
}

// resolveConfig sizes the machine: declared options win, the rest
// default to the repository's litmus-test configuration (4-deep store
// buffers, MESI, one link pair, memory covering every referenced word
// with a 16-word floor).
func resolveConfig(f *File, u *Unit) error {
	cfg := arch.DefaultConfig()
	cfg.Procs = len(f.Threads)
	cfg.StoreBufferDepth = 4
	if f.Config.SBDepth != nil {
		cfg.StoreBufferDepth = *f.Config.SBDepth
	}
	if f.Config.Links != nil {
		cfg.Links = *f.Config.Links
	}
	if f.Config.Protocol != nil {
		cfg.Protocol = *f.Config.Protocol
	}
	if f.Config.Model != nil {
		cfg.Model = *f.Config.Model
	}

	maxAddr := arch.Addr(0)
	for _, a := range u.Shared {
		if a > maxAddr {
			maxAddr = a
		}
	}
	for _, th := range f.Threads {
		for _, st := range th.Stmts {
			for _, o := range st.Operands {
				if o.Kind == OpndAddr && o.Sym == "" && o.Addr > maxAddr {
					maxAddr = o.Addr
				}
			}
		}
	}
	cfg.MemWords = 16
	if w := int(maxAddr) + 1; w > cfg.MemWords {
		cfg.MemWords = w
	}
	if f.Config.MemWords != nil {
		cfg.MemWords = *f.Config.MemWords
		if int(maxAddr) >= cfg.MemWords {
			return fmt.Errorf("litmus: address 0x%x is outside the declared memwords %d", uint32(maxAddr), cfg.MemWords)
		}
	}
	u.Config = cfg
	return u.Config.Validate()
}

// compileThread assembles one thread block through tso.Builder,
// reporting whether the block contains a critical section.
func compileThread(u *Unit, idx int, th Thread) (prog *tso.Program, hasCS bool, err error) {
	name := th.Name
	if name == "" {
		name = fmt.Sprintf("p%d", idx)
	}

	// Validate labels up front so the Builder (which panics on duplicate
	// or undefined labels) never sees a bad one.
	labels := make(map[string]int)
	for _, st := range th.Stmts {
		if st.Label == "" {
			continue
		}
		if _, dup := labels[st.Label]; dup {
			return nil, false, fmt.Errorf("litmus:%d: duplicate label %q in thread %d", st.Line, st.Label, idx)
		}
		labels[st.Label] = st.Line
	}
	for _, st := range th.Stmts {
		for _, o := range st.Operands {
			if o.Kind == OpndLabel {
				if _, ok := labels[o.Sym]; !ok {
					return nil, false, fmt.Errorf("litmus:%d: undefined label %q in thread %d", st.Line, o.Sym, idx)
				}
			}
		}
	}

	b := tso.NewBuilder(name)
	for _, st := range th.Stmts {
		if st.Label != "" {
			b.Label(st.Label)
			continue
		}
		if st.Op == "cs.enter" {
			hasCS = true
		}
		if err := emitStmt(u, b, idx, st); err != nil {
			return nil, false, err
		}
	}
	return b.Build(), hasCS, nil
}

// addrOf resolves an address operand against the shared table and
// bounds-checks it against the configured memory.
func addrOf(u *Unit, idx int, st Stmt, o Operand) (arch.Addr, error) {
	a := o.Addr
	if o.Sym != "" {
		var ok bool
		a, ok = u.Shared[o.Sym]
		if !ok {
			return 0, fmt.Errorf("litmus:%d: thread %d references undeclared shared word %q", st.Line, idx, o.Sym)
		}
	}
	if int(a) >= u.Config.MemWords {
		return 0, fmt.Errorf("litmus:%d: address 0x%x is outside the %d-word memory", st.Line, uint32(a), u.Config.MemWords)
	}
	return a, nil
}

// emitStmt lowers one instruction statement onto the builder.
func emitStmt(u *Unit, b *tso.Builder, idx int, st Stmt) error {
	// Resolve operand shorthands.
	reg := func(i int) tso.Reg { return st.Operands[i].Reg }
	imm := func(i int) arch.Word { return arch.Word(st.Operands[i].Int) }
	lbl := func(i int) string { return st.Operands[i].Sym }

	if (st.Op == "lmfence" || st.Op == "lmfence.r") && st.Note != "" {
		return fmt.Errorf("litmus:%d: a note is not allowed on the %s macro (it expands to four instructions)", st.Line, st.Op)
	}
	// Every mnemonic takes at most one address operand: check its form
	// and resolve it up front.
	indexedOp := st.Op == "loadidx" || st.Op == "storeidx"
	var a arch.Addr
	for _, o := range st.Operands {
		if o.Kind != OpndAddr {
			continue
		}
		if o.Indexed != indexedOp {
			if indexedOp {
				return fmt.Errorf("litmus:%d: %s needs an indexed address [base+rN]", st.Line, st.Op)
			}
			return fmt.Errorf("litmus:%d: %s does not take an indexed address", st.Line, st.Op)
		}
		var err error
		if a, err = addrOf(u, idx, st, o); err != nil {
			return err
		}
	}

	switch st.Op {
	case "nop":
		b.Nop()
	case "halt":
		b.Halt()
	case "mfence":
		b.Mfence()
	case "linkbranch":
		b.LinkBranch()
	case "cs.enter":
		b.CSEnter()
	case "cs.exit":
		b.CSExit()
	case "loadi":
		b.LoadI(reg(0), imm(1))
	case "load":
		b.Load(reg(0), a)
	case "loadidx":
		b.LoadIdx(reg(0), a, st.Operands[1].Reg)
	case "le":
		b.LE(reg(0), a)
	case "store":
		b.Store(a, reg(1))
	case "storei":
		b.StoreI(a, imm(1))
	case "storeidx":
		b.StoreIdx(a, st.Operands[0].Reg, reg(1))
	case "st.linked":
		b.StoreLinked(a, imm(1))
	case "st.linked.r":
		b.StoreLinkedReg(a, reg(1))
	case "linkbegin":
		b.LinkBegin(a)
	case "add":
		b.Add(reg(0), reg(1), reg(2))
	case "sub":
		b.Sub(reg(0), reg(1), reg(2))
	case "addi":
		b.AddI(reg(0), reg(1), imm(2))
	case "beq":
		b.Beq(reg(0), imm(1), lbl(2))
	case "bne":
		b.Bne(reg(0), imm(1), lbl(2))
	case "blt":
		b.Blt(reg(0), reg(1), lbl(2))
	case "jmp":
		b.Jmp(lbl(0))
	case "lmfence":
		b.Lmfence(a, imm(1), reg(2))
	case "lmfence.r":
		b.LmfenceReg(a, st.Operands[1].Reg, reg(2))
	default:
		return fmt.Errorf("litmus:%d: unknown instruction %q", st.Line, st.Op)
	}
	if st.Note != "" {
		b.Note(st.Note)
	}
	return nil
}

// checkAssert checks the declared property against the threads.
func checkAssert(f *File, u *Unit, sawCS bool) error {
	switch f.Assert.Kind {
	case AssertMutex:
		if !sawCS {
			return fmt.Errorf("litmus: %s asserts mutex but no thread brackets a critical section with cs.enter/cs.exit", u.Name)
		}
	case AssertForbid:
		nproc := len(f.Threads)
		for _, conj := range f.Assert.Forbidden {
			for _, cd := range conj {
				if cd.Proc >= nproc {
					return fmt.Errorf("litmus: forbid condition %s names processor %d, but the file has %d threads",
						cd, cd.Proc, nproc)
				}
			}
		}
	}
	return nil
}
