package tso

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/arch"
	"repro/internal/mesi"
	"repro/internal/storebuf"
)

// This file implements scalarset-style symmetry reduction (after Ip &
// Dill, "Better verification through symmetry") for the model checker.
// A program declares that a ring of processors is interchangeable:
// their programs are renamings of each other under the cyclic rotation
// of the ring, each owns a stride-spaced slice of every declared
// address block, and processor identities appear in data only through a
// declared pid encoding. Rotating the ring then maps reachable states
// to reachable states, so the checker may explore one representative
// per rotation orbit: before keying, a canonicalizer picks the
// lexicographically minimal rotation by a renaming-invariant signature
// (Choose). Applying it — moving cores, store buffers, and caches;
// rotating block addresses; relabeling pid-encoded values, onto a
// scratch machine (Canonicalize) — is the definition of the
// representative; an exact collapsed key of it is assembled without
// applying anything, by renaming the state's component ids through maps
// learned from that definition (CollapsedKey).
//
// The group is the CYCLIC group C_n, not the full symmetric group, and
// that is forced by the programs, not chosen for convenience: a
// sequential thread must examine its peers in SOME deterministic order,
// and that order is part of the state (a thread mid-scan has observed a
// specific prefix). Under an arbitrary permutation a bystander thread's
// scan order is not preserved — renaming its program does not reproduce
// any program in the system — so S_n-canonicalization would merge
// genuinely inequivalent states (the orbit property test caught exactly
// this at n=3). Rotations avoid the problem entirely: they move EVERY
// ring member, and a template that scans peers in ring order (i+1, i+2,
// ... mod n) maps position-for-position onto the next member's
// template. At n=2 the rotation is the transposition, so 2-process
// protocols keep their full symmetry.
//
// Soundness does not rest on the signature quality: ANY applied
// rotation yields an orbit-equivalent state, because Validate checks —
// instruction by instruction, for the generator rotation — that
// renaming each member's program reproduces the next member's, and that
// processors outside the ring are untouched by the renaming. An
// imperfectly invariant signature only costs merging (two orbit members
// may pick different representatives), never soundness. Each orbit has
// at most n members, so symmetry reduces state counts by at most a
// factor of n.
//
// Cost: Choose runs once per explored state, so it encodes only what
// the comparison needs. A member's signature is a head, read off
// the processor alone, followed by a tail that walks memory and the
// member's cache (sigHead, sigTail). Heads are self-delimiting — each
// variable-length part follows its own length byte — so no head is a
// proper prefix of another: two heads that differ do so at a byte both
// have, and the whole signatures order exactly as the heads do. A tail
// can change a comparison only between byte-equal heads, so a head tie
// is the only case that builds tails (all n of them, once). What a
// rotation needs to be applied — position map, slot map, address
// permutation, the addresses it touches — is precomputed per rotation,
// and applying one copies memory and caches wholesale and rewrites only
// the touched words (mesi.System.CopyRenamedFrom).
//
// Pid encoding: a memory word or register declared pid-valued holds 0
// when unset and k+1 when it names ring member k (0 stays fixed under
// every renaming, so zero-initialized memory is symmetric). Values
// outside 1..n pass through renamings unchanged.

// SymBlock declares one per-member address block: ring member k owns
// the single word Base + k*Stride. Rotating the ring rotates the
// members' words within the block.
type SymBlock struct {
	Base   arch.Addr
	Stride arch.Addr
}

// Symmetry declares a cyclic symmetry over a processor ring. Programs
// obtain one from the N-process protocol generators in
// internal/programs; the model checker consumes it via
// litmus.Options.Symmetry.
type Symmetry struct {
	// Procs lists the interchangeable processors in ring order (ring
	// member k is Procs[k]). Must have at least two members.
	Procs []arch.ProcID

	// Blocks are the per-member address blocks (flag[], level[],
	// num[] arrays indexed by ring position).
	Blocks []SymBlock

	// PidWords are shared memory words whose VALUES are pid-encoded
	// (0 = unset, k+1 = ring member k), e.g. a filter lock's turn[]
	// words. Renaming relabels their contents.
	PidWords []arch.Addr

	// PidRegs are registers that ring programs only ever write
	// pid-encoded values into (loads from PidWords, LE results on
	// PidWords). Renaming relabels their contents on ring members.
	PidRegs []Reg
}

// N reports the ring size.
func (s *Symmetry) N() int { return len(s.Procs) }

// pidRemap relabels one pid-encoded value under the ring-position
// permutation sigma: 0 and out-of-range values are fixed, k+1 maps to
// sigma[k]+1.
func pidRemap(v arch.Word, sigma []int) arch.Word {
	if v >= 1 && v <= arch.Word(len(sigma)) {
		return arch.Word(sigma[v-1]) + 1
	}
	return v
}

// renameInstr applies the renaming induced by addrOf and sigma to one
// instruction: memory operands are remapped through addrOf, and
// immediates that are pid-encoded by declaration — stores into
// PidWords, compares against PidRegs, immediate loads into PidRegs —
// are relabeled. Trace annotations are dropped (they are not
// semantics).
func (s *Symmetry) renameInstr(in Instr, addrOf []arch.Addr, sigma []int, pidWord map[arch.Addr]bool) Instr {
	out := in
	out.Note = ""
	switch in.Op {
	case OpLoad, OpStore, OpStoreI, OpLoadIdx, OpStoreIdx,
		OpLinkBegin, OpLE, OpStoreLinked, OpStoreLinkedReg:
		out.Addr = addrOf[in.Addr]
	}
	switch in.Op {
	case OpStoreI, OpStoreLinked:
		if pidWord[in.Addr] {
			out.Imm = pidRemap(in.Imm, sigma)
		}
	case OpBeq, OpBne:
		if s.isPidReg(in.Ra) {
			out.Imm = pidRemap(in.Imm, sigma)
		}
	case OpLoadI:
		if s.isPidReg(in.Rd) {
			out.Imm = pidRemap(in.Imm, sigma)
		}
	}
	return out
}

func (s *Symmetry) isPidReg(r Reg) bool {
	for _, pr := range s.PidRegs {
		if pr == r {
			return true
		}
	}
	return false
}

// buildAddrTab fills tab (length memWords) with the address permutation
// induced by the ring-position permutation sigma: identity everywhere
// except block words, where member k's word moves to member sigma(k)'s
// slot.
func (s *Symmetry) buildAddrTab(tab []arch.Addr, sigma []int) {
	for a := range tab {
		tab[a] = arch.Addr(a)
	}
	for _, b := range s.Blocks {
		for k := range sigma {
			tab[b.Base+arch.Addr(k)*b.Stride] = b.Base + arch.Addr(sigma[k])*b.Stride
		}
	}
}

// Validate checks the declaration against the programs: blocks and pid
// words must fit the address space without overlapping, renaming each
// ring member's program under the generator rotation (k -> k+1 mod n)
// must reproduce the next member's program instruction for instruction,
// and every processor OUTSIDE the ring must be untouched by the
// renaming (its program may not reference block words or pid-encoded
// immediates). The rotation generates the whole cyclic group and
// renamings compose, so passing here means every rotation maps the
// program vector to itself — the property canonicalization's soundness
// rests on. The bystander check matters: a non-member program that
// reads a block word would observe the rotation, which is exactly the
// failure mode that rules out the full symmetric group for the members
// themselves. The model checker calls Validate once per exploration and
// refuses to run an invalid declaration.
func (s *Symmetry) Validate(progs []*Program, memWords int) error {
	n := s.N()
	if n < 2 {
		return fmt.Errorf("tso: symmetry ring needs >= 2 processors, got %d", n)
	}
	member := make(map[arch.ProcID]bool, n)
	for _, p := range s.Procs {
		if int(p) < 0 || int(p) >= len(progs) || progs[p] == nil {
			return fmt.Errorf("tso: symmetry ring member %v has no program", p)
		}
		if member[p] {
			return fmt.Errorf("tso: duplicate symmetry ring member %v", p)
		}
		member[p] = true
	}
	owned := make(map[arch.Addr]bool)
	for bi, b := range s.Blocks {
		if b.Stride == 0 {
			return fmt.Errorf("tso: symmetry block %d has zero stride", bi)
		}
		for k := 0; k < n; k++ {
			a := b.Base + arch.Addr(k)*b.Stride
			if int(a) >= memWords {
				return fmt.Errorf("tso: symmetry block %d word 0x%x outside %d-word memory", bi, uint32(a), memWords)
			}
			if owned[a] {
				return fmt.Errorf("tso: symmetry blocks overlap at 0x%x", uint32(a))
			}
			owned[a] = true
		}
	}
	pidWord := make(map[arch.Addr]bool, len(s.PidWords))
	for _, a := range s.PidWords {
		if int(a) >= memWords {
			return fmt.Errorf("tso: pid word 0x%x outside %d-word memory", uint32(a), memWords)
		}
		pidWord[a] = true
	}

	// The generator rotation: ring position k maps to k+1 mod n.
	sigma := make([]int, n)
	for k := range sigma {
		sigma[k] = (k + 1) % n
	}
	tab := make([]arch.Addr, memWords)
	s.buildAddrTab(tab, sigma)

	match := func(from, to *Program, fromID, toID arch.ProcID) error {
		if len(from.Instrs) != len(to.Instrs) {
			return fmt.Errorf("tso: renaming proc %v does not reproduce proc %v: program lengths differ (%d vs %d)",
				fromID, toID, len(from.Instrs), len(to.Instrs))
		}
		for i, in := range from.Instrs {
			got := s.renameInstr(in, tab, sigma, pidWord)
			want := to.Instrs[i]
			want.Note = ""
			if got != want {
				return fmt.Errorf("tso: renaming proc %v does not reproduce proc %v at instruction %d: got %v, want %v",
					fromID, toID, i, got, want)
			}
		}
		return nil
	}
	for k := 0; k < n; k++ {
		from, to := s.Procs[k], s.Procs[(k+1)%n]
		if err := match(progs[from], progs[to], from, to); err != nil {
			return err
		}
	}
	for p := range progs {
		id := arch.ProcID(p)
		if member[id] || progs[p] == nil {
			continue
		}
		if err := match(progs[p], progs[p], id, id); err != nil {
			return fmt.Errorf("tso: processor %v outside the symmetry ring observes the rotation: %w", id, err)
		}
	}
	return nil
}

// sigLine is scratch for sorting a processor's cache lines while
// building its signature.
type sigLine struct {
	key uint32 // normalized address encoding
	st  byte
	val arch.Word
}

// Canonicalizer rewrites machines into a canonical representative of
// their rotation orbit. Each worker owns one (the scratch machine and
// buffers are not safe for concurrent use).
type Canonicalizer struct {
	sym     *Symmetry
	scratch *Machine

	n        int
	inClass  []bool
	blockOf  []int // addr -> declared block index, or -1
	blockPos []int // addr -> owning ring position, or -1
	pidWord  []bool
	pidReg   [NumRegs]bool

	rots []rotation // rots[r-1] renames by the rotation k -> k+r mod n
	// touched is, in address order, every address whose word a renaming
	// moves or relabels: block words and pid words. Everything else is
	// copied verbatim.
	touched []arch.Addr
	keys    [][]byte
	lines   []sigLine

	// The learned component-id maps CollapsedKey reads (see there):
	// renamed[r-1][kind][id] is one more than the id, in col's tables, of
	// what rotation r turns the component interned as id into, or zero
	// when no materialized state has shown that pair yet. rotated and
	// misses count the keys that took a non-identity rotation and those
	// among them the maps could not answer.
	col             *Collapser
	renamed         [][numIDMaps][]uint32
	rotated, misses uint64
}

// The id maps of one rotation: one per component table and a second one
// for cores, because a core outside the ring keeps its pid registers
// where a member's are relabeled, so one core encoding renames to two.
const (
	idMapMem        = NumComponentTables - 1
	idMapBystander  = NumComponentTables
	numIDMaps       = NumComponentTables + 1
	collapsedStride = 4 * (NumComponentTables - 1) // a processor's bytes in a collapsed key
)

// rotation is everything applying one non-identity rotation needs,
// precomputed once per canonicalizer.
type rotation struct {
	sigma   []int       // ring position k -> position after the rotation
	slotOf  []int       // processor -> slot its state lands in
	addrTab []arch.Addr // address permutation (buildAddrTab)
	pidWord []bool      // the canonicalizer's, indexed by address
}

// valOf filters one stored value through the renaming, keyed by the
// value's ORIGINAL address.
func (rt *rotation) valOf(a arch.Addr, v arch.Word) arch.Word {
	if rt.pidWord[a] {
		return pidRemap(v, rt.sigma)
	}
	return v
}

func (rt *rotation) remapSB(e storebuf.Entry) (arch.Addr, arch.Word) {
	return rt.addrTab[e.Addr], rt.valOf(e.Addr, e.Val)
}

// NewCanonicalizer builds a canonicalizer for machines of proto's
// shape. The caller must have Validated sym against proto's programs.
func NewCanonicalizer(sym *Symmetry, proto *Machine) *Canonicalizer {
	mw := proto.Cfg.MemWords
	c := &Canonicalizer{
		sym:      sym,
		scratch:  proto.Clone(),
		n:        sym.N(),
		inClass:  make([]bool, len(proto.Procs)),
		blockOf:  make([]int, mw),
		blockPos: make([]int, mw),
		pidWord:  make([]bool, mw),
		rots:     make([]rotation, sym.N()-1),
		keys:     make([][]byte, sym.N()),
	}
	for _, p := range sym.Procs {
		c.inClass[p] = true
	}
	for a := range c.blockOf {
		c.blockOf[a], c.blockPos[a] = -1, -1
	}
	for bi, b := range sym.Blocks {
		for k := 0; k < c.n; k++ {
			a := b.Base + arch.Addr(k)*b.Stride
			c.blockOf[a], c.blockPos[a] = bi, k
		}
	}
	for _, a := range sym.PidWords {
		c.pidWord[a] = true
	}
	for _, r := range sym.PidRegs {
		c.pidReg[r] = true
	}
	for a := range c.pidWord {
		if c.pidWord[a] || c.blockOf[a] >= 0 {
			c.touched = append(c.touched, arch.Addr(a))
		}
	}
	for i := range c.rots {
		rt := &c.rots[i]
		rt.sigma = make([]int, c.n)
		for k := range rt.sigma {
			rt.sigma[k] = (k + i + 1) % c.n
		}
		rt.slotOf = make([]int, len(proto.Procs))
		for p := range rt.slotOf {
			rt.slotOf[p] = p
		}
		for k, p := range sym.Procs {
			rt.slotOf[p] = int(sym.Procs[rt.sigma[k]])
		}
		rt.addrTab = make([]arch.Addr, mw)
		sym.buildAddrTab(rt.addrTab, rt.sigma)
		rt.pidWord = c.pidWord
	}
	return c
}

// normPid folds a pid-encoded value into a rotation-invariant marker
// relative to ring position k: 0 stays unset, member m becomes the ring
// distance from k plus one (self = 1, next neighbor = 2, ...). Distance
// is preserved by every rotation, so the marker is invariant — and it
// keeps WHICH other member distinct, which the canonical-rotation
// choice needs to be stable.
func (c *Canonicalizer) normPid(v arch.Word, k int) arch.Word {
	if v >= 1 && v <= arch.Word(c.n) {
		return arch.Word((int(v)-1-k+c.n)%c.n) + 1
	}
	return v
}

// normAddr encodes an address invariantly for member k's signature:
// block words become (block, ring distance from k), everything else is
// itself.
func (c *Canonicalizer) normAddr(a arch.Addr, k int) uint32 {
	if int(a) < len(c.blockOf) && c.blockOf[a] >= 0 {
		rel := uint32((c.blockPos[a] - k + c.n) % c.n)
		return 1<<24 | uint32(c.blockOf[a])<<8 | rel
	}
	return uint32(a)
}

func appendWord(dst []byte, v arch.Word) []byte {
	u := uint64(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// Member k's rotation-invariant signature is sigHead followed by
// sigTail: rotating the machine by r and asking member k+r produces the
// same bytes. Two orbit-corresponding members therefore produce equal
// signatures; the converse need not hold (ties cost merging, not
// soundness).
//
// sigHead is the part read off the processor alone: PC, flags,
// normalized registers, LEAddr, links, store buffer. Each of its two
// variable-length parts follows its own length byte, so no head is a
// proper prefix of another, and two signatures whose heads differ
// compare as their heads do whatever the tails hold.
func (c *Canonicalizer) sigHead(m *Machine, k int, dst []byte) []byte {
	p := m.Procs[c.sym.Procs[k]]
	dst = append(dst, byte(p.PC), byte(p.PC>>8))
	flags := byte(0)
	if p.Halted {
		flags |= 1
	}
	if p.InCS {
		flags |= 2
	}
	if p.LEBit {
		flags |= 4
	}
	dst = append(dst, flags)
	for r := 0; r < NumRegs; r++ {
		v := p.Regs[r]
		if c.pidReg[r] {
			v = c.normPid(v, k)
		}
		dst = appendWord(dst, v)
	}
	dst = appendU32(dst, c.normAddr(p.LEAddr, k))
	dst = append(dst, byte(len(p.links)))
	for _, l := range p.links {
		dst = appendU32(dst, c.normAddr(l.addr, k))
		linkedIdx := byte(0xff)
		if l.seqSet {
			if i := p.SB.IndexOfSeq(l.seq); i >= 0 {
				linkedIdx = byte(i)
			}
		}
		dst = append(dst, linkedIdx)
	}
	dst = append(dst, byte(p.SB.Len()))
	for i, n := 0, p.SB.Len(); i < n; i++ {
		e := p.SB.At(i)
		dst = appendU32(dst, c.normAddr(e.Addr, k))
		v := e.Val
		if int(e.Addr) < len(c.pidWord) && c.pidWord[e.Addr] {
			v = c.normPid(v, k)
		}
		dst = appendWord(dst, v)
	}
	return dst
}

// sigTail appends the rest of member k's signature, the part that walks
// memory and the cache: every block word (in ring order starting from k)
// and the shared pid words — who holds what is the strongest
// discriminator between otherwise-identical cores — then the member's
// own cache lines and guards, normalized and sorted.
func (c *Canonicalizer) sigTail(m *Machine, k int, dst []byte) []byte {
	p := m.Procs[c.sym.Procs[k]]
	for _, b := range c.sym.Blocks {
		for d := 0; d < c.n; d++ {
			a := b.Base + arch.Addr((k+d)%c.n)*b.Stride
			v := m.Sys.MemValue(a)
			if c.pidWord[a] {
				v = c.normPid(v, k)
			}
			dst = appendWord(dst, v)
		}
	}
	for _, a := range c.sym.PidWords {
		dst = appendWord(dst, c.normPid(m.Sys.MemValue(a), k))
	}
	c.lines = c.lines[:0]
	m.Sys.VisitLines(p.ID, func(a arch.Addr, st mesi.State, val arch.Word) {
		v := val
		if int(a) < len(c.pidWord) && c.pidWord[a] {
			v = c.normPid(v, k)
		}
		c.lines = append(c.lines, sigLine{key: c.normAddr(a, k), st: byte(st), val: v})
	})
	sortSigLines(c.lines)
	dst = append(dst, byte(len(c.lines)))
	for _, l := range c.lines {
		dst = appendU32(dst, l.key)
		dst = append(dst, l.st)
		dst = appendWord(dst, l.val)
	}
	c.lines = c.lines[:0]
	m.Sys.VisitGuards(p.ID, func(a arch.Addr) {
		c.lines = append(c.lines, sigLine{key: c.normAddr(a, k)})
	})
	sortSigLines(c.lines)
	dst = append(dst, byte(len(c.lines)))
	for _, l := range c.lines {
		dst = appendU32(dst, l.key)
	}
	return dst
}

// sortSigLines is an in-place insertion sort over the few cache lines a
// signature covers; deterministic order is all that matters.
func sortSigLines(ls []sigLine) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && less(ls[j], ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

func less(a, b sigLine) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.st != b.st {
		return a.st < b.st
	}
	return a.val < b.val
}

// Choose returns the rotation that takes m to its orbit's canonical
// representative: 0 for the identity, r for the renaming of ring position
// k to k+r mod n. The representative is the rotation minimizing the
// ring's signature sequence lexicographically; the signatures are
// rotation-invariant per member, so every orbit member computes the same
// minimal sequence and lands on the same representative. Choose only
// reads m.
func (c *Canonicalizer) Choose(m *Machine) int {
	if m == c.scratch {
		panic("tso: Canonicalize of the canonicalizer's own scratch machine")
	}
	for k := 0; k < c.n; k++ {
		c.keys[k] = c.sigHead(m, k, c.keys[k][:0])
	}
	// Rotating by r moves member k to position k+r, so position j of the
	// rotated ring carries member j-r's (invariant) signature. Find the
	// r whose sequence is lexicographically smallest; ties take the
	// smallest r, and any tie is between rotations producing equally
	// canonical representatives. Heads alone decide every comparison in
	// which they differ; the first tie extends all n keys with their
	// tails, after which the same comparison orders whole signatures.
	best, full := 0, false
	for r := 1; r < c.n; r++ {
		for j := 0; j < c.n; j++ {
			a, b := (j-r+c.n)%c.n, (j-best+c.n)%c.n
			cmp := bytes.Compare(c.keys[a], c.keys[b])
			if cmp == 0 && !full {
				for k := range c.keys {
					c.keys[k] = c.sigTail(m, k, c.keys[k])
				}
				full = true
				cmp = bytes.Compare(c.keys[a], c.keys[b])
			}
			if cmp != 0 {
				if cmp < 0 {
					best = r
				}
				break
			}
		}
	}
	return best
}

// Canonicalize returns the canonical orbit representative of m (the
// rotation Choose picks, applied) and the processor permutation that
// produced it: slotOf[p] is the slot processor p's state landed in (nil
// when the chosen rotation is the identity and m itself was returned;
// otherwise that rotation's precomputed table, which the caller must not
// modify).
//
// The returned machine is the canonicalizer's scratch — valid only until
// the next Canonicalize or CollapsedKey call and only for read-side use
// (fingerprinting); it must never be stepped.
func (c *Canonicalizer) Canonicalize(m *Machine) (*Machine, []int) {
	r := c.Choose(m)
	if r == 0 {
		return m, nil
	}
	rt := &c.rots[r-1]
	c.applyRenaming(m, rt)
	return c.scratch, rt.slotOf
}

// CollapsedKey appends to dst the collapsed key, in col's tables, of m's
// canonical representative, and returns it with Canonicalize's
// permutation: byte for byte what col.Collapse of Canonicalize(m)
// appends, without building the representative. Renaming moves core,
// store buffer and cache i to slot slotOf[i] reading nothing but that
// component, and memory likewise, so a renamed component's encoding is a
// function of the component's own encoding and the rotation. m is
// therefore keyed where it stands, from its own component cache, and
// each cached id goes through the rotation's id map into its slot's
// position. The maps are learned from the definition, never computed: an
// id without an entry sends the state down Canonicalize + Collapse, and
// the 3n+1 (id, renamed id) pairs of that result are what gets recorded.
// A pair contradicting a recorded one means renaming is not the function
// the maps assume; that is refused (panic) like an invalid Symmetry,
// because a wrong merge is worse than no run. One canonicalizer serves
// one Collapser at a time: a different col starts the maps over.
func (c *Canonicalizer) CollapsedKey(col *Collapser, m *Machine, dst []byte, scratch *[]byte) ([]byte, []int) {
	r := c.Choose(m)
	if r == 0 {
		return col.Collapse(m, dst, scratch), nil
	}
	if c.col != col {
		c.col, c.renamed = col, make([][numIDMaps][]uint32, len(c.rots))
	}
	c.rotated++
	rt, maps := &c.rots[r-1], &c.renamed[r-1]
	m.refreshKeys(col, scratch)
	at, np := len(dst), len(m.Procs)
	dst = append(dst, make([]byte, CollapsedWidth(np))...)
	key := dst[at:]
	hit := mapID(maps[idMapMem], m.memKey, key[collapsedStride*np:])
	for i, p := range m.Procs {
		out := key[collapsedStride*rt.slotOf[i]:]
		for t := range p.keys {
			hit = hit && mapID(maps[c.idMap(i, t)], p.keys[t], out[4*t:])
		}
	}
	if hit {
		if m.CSViolation {
			key[len(key)-1] = 1
		}
		return dst, rt.slotOf
	}
	c.misses++
	c.applyRenaming(m, rt)
	dst = col.Collapse(c.scratch, dst[:at], scratch)
	learnID(&maps[idMapMem], m.memKey, c.scratch.memKey)
	for i, p := range m.Procs {
		for t := range p.keys {
			learnID(&maps[c.idMap(i, t)], p.keys[t], c.scratch.Procs[rt.slotOf[i]].keys[t])
		}
	}
	return dst, rt.slotOf
}

// KeyStats reports how many CollapsedKey calls chose a non-identity
// rotation and how many of those had to build the representative because
// an id map had no entry yet.
func (c *Canonicalizer) KeyStats() (rotated, misses uint64) { return c.rotated, c.misses }

// idMap picks the id map for processor i's component t (Proc.keys order).
func (c *Canonicalizer) idMap(i, t int) int {
	if t == 0 && !c.inClass[i] {
		return idMapBystander
	}
	return t
}

// mapID writes the renamed id tab records for the component keyed id
// into out, and reports whether it records one.
func mapID(tab []uint32, id compKey, out []byte) bool {
	if id[0] >= uint64(len(tab)) || tab[id[0]] == 0 {
		return false
	}
	binary.LittleEndian.PutUint32(out, tab[id[0]]-1)
	return true
}

// learnID records that the component keyed from renames to the one keyed
// to, and refuses a pair that contradicts the record.
func learnID(tab *[]uint32, from, to compKey) {
	if n := int(from[0]) + 1 - len(*tab); n > 0 {
		*tab = append(*tab, make([]uint32, n)...)
	}
	if old := (*tab)[from[0]]; old != 0 && old != uint32(to[0])+1 {
		panic(fmt.Sprintf("tso: component %d renames to %d and to %d under one rotation: renaming is not a function of the component's encoding",
			from[0], old-1, to[0]))
	}
	(*tab)[from[0]] = uint32(to[0]) + 1
}

// applyRenaming overwrites the scratch machine with the renamed copy of
// m under rt. Scratch keeps its own programs and guard handlers:
// Validate guarantees slot j's program IS the renaming of member i's,
// and the scratch is never stepped.
func (c *Canonicalizer) applyRenaming(m *Machine, rt *rotation) {
	dst := c.scratch
	dst.Cfg = m.Cfg
	dst.CSViolation = m.CSViolation
	dst.Sys.CopyRenamedFrom(m.Sys, rt.slotOf, rt.addrTab, c.touched, rt.valOf)
	for i, sp := range m.Procs {
		dp := dst.Procs[rt.slotOf[i]]
		dp.PC = sp.PC
		dp.Regs = sp.Regs
		if c.inClass[i] {
			for r := 0; r < NumRegs; r++ {
				if c.pidReg[r] {
					dp.Regs[r] = pidRemap(dp.Regs[r], rt.sigma)
				}
			}
		}
		dp.Halted = sp.Halted
		dp.InCS = sp.InCS
		dp.LEBit = sp.LEBit
		dp.LEAddr = rt.addrTab[sp.LEAddr]
		dp.links = dp.links[:0]
		for _, l := range sp.links {
			l.addr = rt.addrTab[l.addr]
			dp.links = append(dp.links, l)
		}
		dp.SB.CopyFrom(sp.SB)
		dp.SB.Remap(rt.remapSB)
	}
	dst.Invalidate()
}
