package tso

import "encoding/binary"

// This file is the machine's state-key cache. A state's identity is its
// Fingerprint: 3n+1 component encodings (per processor FingerprintCore,
// the store buffer, the mesi cache; then the memory image) and the CS
// byte. An action rewrites two to four of those components, so the
// machine keeps, per component, a 16-byte key of the encoding (a 128-bit
// digest, or the Collapser's intern id) together with a stale flag, and
// both visited-set keys are assembled from the cached keys after
// re-encoding only the stale components.
//
// The contract that makes that sound is one sentence: a component whose
// flag is clear encodes byte-identically to when the flag was last
// cleared. The flags are set where the state is written:
//
//   - core i: ExecStep (PC, registers, flags, link registers), drainAt
//     when the processor has a live link (a completed store shifts the
//     buffer positions link entries encode, and completing a guarded
//     store clears its link), the guard handler (a remote access cleared
//     the link) and Interrupt;
//   - store buffer i: commitStore and drainAt, which between them cover
//     mfence, the link-break flush a remote write triggers on another
//     processor, and Interrupt;
//   - cache i and memory: inside mesi.System, at its own write sites
//     (mesi.System.CacheDirty), read here and cleared with ClearDirty.
//
// CopyFrom and Clone carry flags and keys along with the state, so a
// child forked from a keyed parent re-encodes only what its action
// wrote. Code that writes machine state any other way (the symmetry
// canonicalizer's renaming; a test poking a register) calls Invalidate.
// A Collapser-owned cache is also what Canonicalizer.CollapsedKey reads
// to key a rotated state without renaming it: the ids cached here, sent
// through per-rotation id maps.
// Fingerprint never reads the cache: it is the definition the cached
// keys are tested against.

// compKey caches one component's contribution to the state key: the
// digest of its encoding, or, when a Collapser owns the cache
// (Machine.keyOwner), the component's intern id in word 0.
type compKey [2]uint64

// Stale flags on Proc.stale, one per component the processor owns, in
// Proc.keys order.
const (
	staleCore = 1 << iota
	staleSB
	staleCache
	staleAll = staleCore | staleSB | staleCache
)

// Invalidate marks every component's cached key stale. Callers that
// write machine state other than through ExecStep, the drain steps,
// Interrupt, CopyFrom and the mesi.System methods must call it before
// the machine is next keyed.
func (m *Machine) Invalidate() {
	for _, p := range m.Procs {
		p.stale = staleAll
	}
	m.memStale = true
}

// refreshKeys re-encodes the stale components and caches their keys:
// intern ids in c's tables, or digests when c is nil. A cache last
// filled for a different owner holds the wrong kind of key throughout.
func (m *Machine) refreshKeys(c *Collapser, scratch *[]byte) {
	if m.keyOwner != c {
		m.keyOwner = c
		m.Invalidate()
	}
	var tabs [NumComponentTables]*internTable // all nil: digests
	if c != nil {
		tabs = c.tables()
	}
	buf := *scratch
	for i, p := range m.Procs {
		stale := p.stale
		if m.Sys.CacheDirty(i) {
			stale |= staleCache
		}
		if stale == 0 {
			continue
		}
		if stale&staleCore != 0 {
			buf = m.FingerprintCore(i, buf[:0])
			p.keys[0].set(tabs[0], buf)
		}
		if stale&staleSB != 0 {
			buf = p.SB.Fingerprint(buf[:0])
			p.keys[1].set(tabs[1], buf)
		}
		if stale&staleCache != 0 {
			buf = m.Sys.FingerprintCache(i, buf[:0])
			p.keys[2].set(tabs[2], buf)
		}
		p.stale = 0
	}
	if m.memStale || m.Sys.MemDirty() {
		buf = m.Sys.FingerprintMem(buf[:0])
		m.memKey.set(tabs[3], buf)
		m.memStale = false
	}
	m.Sys.ClearDirty()
	*scratch = buf
}

// set caches the key of a component that encodes as enc: its intern id
// in t, or with no table its 128-bit digest. The digest runs HashPair's
// two mixers over the words of enc, with the odd bytes at the end taken
// as one zero-padded word with the length in its top byte (HashPair's
// byte-at-a-time tail is a dependent multiply per byte, and a core
// encoding ends in six of them). Digests are what KeyPair folds, so they
// are pinned the way it is (see there).
func (k *compKey) set(t *internTable, enc []byte) {
	if t != nil {
		k[0] = uint64(t.intern(enc))
		return
	}
	h1, h2 := uint64(pairSeed1), uint64(pairSeed2)
	tail := uint64(len(enc)) << 56
	for len(enc) >= 8 {
		w := binary.LittleEndian.Uint64(enc)
		h1, h2 = mix1(h1, w), mix2(h2, w)
		enc = enc[8:]
	}
	for i, c := range enc {
		tail |= uint64(c) << (8 * uint(i))
	}
	k[0], k[1] = finish1(mix1(h1, tail)), finish2(mix2(h2, tail))
}

// KeyPair returns the machine's 128-bit hashed state key: two
// independent 64-bit hashes such that machines with equal Fingerprints
// have equal pairs. It folds the cached component digests, the first
// digest words through HashPair's first mixer and the second words
// through its second, so the two halves stay independent: each
// processor's core, store buffer and cache digests in that order into a
// processor word (independent chains the core overlaps), then the
// processor words in processor order, memory and the CS bit into the
// key. Both levels are ordered folds, not an XOR of position-keyed
// digests: every step is a bijection of the running hash, so two states
// differing in one component collide on a half only if that component's
// digest does, and exchanging two components' or two processors'
// encodings changes the key. scratch is a caller-owned encoding buffer,
// as for Collapser.Collapse.
//
// The pair is on disk: a litmus checkpoint of a hashed run stores it as
// each visited state's record. Changing what KeyPair returns for a state
// (the digests, the fold, a component's encoding) orphans those files
// and means bumping litmus's ckptVersion; the testdata/*-hashed.lbmf rows
// of TestResumeParentWrittenCheckpoint are what fails first.
func (m *Machine) KeyPair(scratch *[]byte) (h1, h2 uint64) {
	m.refreshKeys(nil, scratch)
	h1, h2 = pairSeed1, pairSeed2
	for _, p := range m.Procs {
		k := &p.keys
		h1 = mix1(h1, mix1(mix1(mix1(pairSeed1, k[0][0]), k[1][0]), k[2][0]))
		h2 = mix2(h2, mix2(mix2(mix2(pairSeed2, k[0][1]), k[1][1]), k[2][1]))
	}
	h1, h2 = mix1(h1, m.memKey[0]), mix2(h2, m.memKey[1])
	cs := uint64(0)
	if m.CSViolation {
		cs = 1
	}
	return finish1(mix1(h1, cs)), finish2(mix2(h2, cs))
}

// The hash pair's two mixers. The first is FNV-1a widened to eight
// bytes per multiply with a downward xor-shift so low input bits still
// reach low output bits; the second a murmur-style word mixer with
// unrelated constants, so a collision on one has no structural reason
// to be a collision on the other. HashPair is the one byte-string hash
// of the model checker: checkpoint headers record its values (root
// identity, options hash), so the constants here are part of every
// checkpoint on disk (litmus.TestVisitedHashPair pins them).
const (
	pairSeed1  = 14695981039346656037
	pairPrime1 = 1099511628211
	pairSeed2  = 0x9E3779B97F4A7C15
	pairMul2   = 0xFF51AFD7ED558CCD
	pairTail2  = 0xC4CEB9FE1A85EC53
)

func mix1(h, k uint64) uint64 {
	h = (h ^ k) * pairPrime1
	return h ^ h>>29
}

func mix2(h, k uint64) uint64 {
	h = (h ^ k) * pairMul2
	return h ^ h>>31
}

func finish1(h uint64) uint64 {
	h ^= h >> 32
	h *= pairPrime1
	return h ^ h>>29
}

func finish2(h uint64) uint64 {
	h ^= h >> 33
	h *= pairMul2
	return h ^ h>>29
}

// HashPair returns two independent 64-bit hashes of b from one pass:
// each word is loaded once and feeds both mixers, two multiply chains
// the core overlaps. The model checker's visited set hashes exact
// collapsed keys with it.
func HashPair(b []byte) (uint64, uint64) {
	h1, h2 := uint64(pairSeed1), uint64(pairSeed2)
	for len(b) >= 8 {
		k := binary.LittleEndian.Uint64(b)
		h1, h2 = mix1(h1, k), mix2(h2, k)
		b = b[8:]
	}
	for _, c := range b {
		h1 = (h1 ^ uint64(c)) * pairPrime1
		h2 = (h2 ^ uint64(c)) * pairTail2
	}
	return finish1(h1), finish2(h2)
}
