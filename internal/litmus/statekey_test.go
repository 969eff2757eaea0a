package litmus

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/tso"
)

// walkStateKeys explores build's whole space the way the parallel engine
// produces states: a child is CopyFrom'd from its keyed parent into a
// recycled machine (the last child steps the parent in place), stepped
// by mdl, and keyed from the machine's component cache, with Collapse
// when exact and KeyPair otherwise. Every state so keyed, the duplicates
// included, is held to the same call on a copy with the whole cache
// invalidated. The walk's own visited set is keyed by the full
// Fingerprint, which never reads the cache. It returns the states kept,
// the keys compared and the mismatches.
func walkStateKeys(t *testing.T, build func() *tso.Machine, mdl Model, exact bool) (states, compared, mismatches int) {
	t.Helper()
	col := tso.NewCollapser()
	var scratch, got, want, fp []byte
	key := func(dst []byte, m *tso.Machine) []byte {
		if exact {
			return col.Collapse(m, dst[:0], &scratch)
		}
		h1, h2 := m.KeyPair(&scratch)
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst[:0], h1), h2)
	}
	ref := build()
	seen := make(map[string]bool)
	var stack, free []*tso.Machine
	var acts []Action
	try := func(m *tso.Machine) {
		got = key(got, m)
		ref.CopyFrom(m)
		ref.Invalidate()
		want = key(want, ref)
		compared++
		if !bytes.Equal(got, want) {
			if mismatches++; mismatches <= 3 {
				t.Errorf("state %d: key from the cache %x, from scratch %x", compared, got, want)
			}
		}
		fp = m.Fingerprint(fp[:0])
		if seen[string(fp)] {
			free = append(free, m)
			return
		}
		seen[string(fp)] = true
		stack = append(stack, m)
	}
	try(build())
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		acts = mdl.Enabled(acts[:0], m, 0)
		for i, a := range acts {
			c := m
			if i < len(acts)-1 {
				if n := len(free); n > 0 {
					c, free = free[n-1], free[:n-1]
					c.CopyFrom(m)
				} else {
					c = m.Clone()
				}
			}
			mdl.Apply(c, a)
			try(c)
		}
		if len(acts) == 0 {
			free = append(free, m)
		}
	}
	return len(seen), compared, mismatches
}

// TestStateKeyMatchesReferenceCatalog: on every state of the catalog
// under TSO, PSO (per-class drains) and SC (an Exec that also drains),
// the hashed pair and the collapsed tuple assembled from the machine's
// component cache equal the ones an Invalidate()d copy computes from
// scratch. The 3-process spaces get the same check in internal/tso
// (TestStateKeyMatchesReference), which the race step runs -short.
func TestStateKeyMatchesReferenceCatalog(t *testing.T) {
	states, compared := 0, 0
	for _, ct := range Catalog() {
		for _, mdl := range []Model{tsoModel{}, psoModel{}, scModel{}} {
			for _, exact := range []bool{false, true} {
				n, c, mismatches := walkStateKeys(t, machineFor(ct.Build()...), mdl, exact)
				states += n
				compared += c
				if mismatches > 0 {
					t.Errorf("%s/%s exact=%v: %d of %d keys from the cache differ from the from-scratch key",
						ct.Name, mdl.Name(), exact, mismatches, c)
				}
			}
		}
	}
	t.Logf("%d states, %d keys compared", states, compared)
}
