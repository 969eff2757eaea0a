package litmus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/programs"
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
		acts = mdl.Enabled(acts[:0], m)
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

// TestCanonicalKeyMatchesDefinitionEngine holds worker.stateKey, the
// engine's key routine, to the definition under Collapse + Symmetry:
// every key it returns equals tso.Collapser.Collapse of
// tso.Canonicalizer.Canonicalize(m) interned into the same tables. The
// walk is the engine's own — children CopyFrom'd or stepped in place from
// a keyed parent, orbits told apart by the key under test — over bakery3
// under mfence and l-mfence, unreduced and with the reducer choosing what
// to expand (ample sets, and the cycle proviso's successor probes keyed
// like any other state), which reaches a different population in a
// different order, so the id maps are learned differently. Each leg stops
// at 60,000 orbits (20,000 under -short): the walk is one goroutine that
// the race step runs whole, and internal/tso's
// TestCanonicalKeyMatchesDefinition is the same comparison below the
// engine on the whole spaces, next to the test that it bites.
func TestCanonicalKeyMatchesDefinitionEngine(t *testing.T) {
	for _, v := range []programs.DekkerVariant{programs.DekkerMfence, programs.DekkerLmfence} {
		for _, reduction := range []bool{false, true} {
			sp := programs.BakeryN(3, v)
			sp.Cfg.StoreBufferDepth = 2
			t.Run(fmt.Sprintf("%s/reduction=%v", sp.Name, reduction), func(t *testing.T) {
				limit := 60_000
				if testing.Short() {
					limit = 20_000
				}
				root := sp.Build()
				e := &engine{
					plan:      resolve(root, Options{Symmetry: sp.Sym, Reduction: reduction, Collapse: true}, nil, false),
					collapser: tso.NewCollapser(),
				}
				w := &worker{eng: e, canon: tso.NewCanonicalizer(e.sym, root)}
				ref := tso.NewCanonicalizer(sp.Sym, root)
				var want, scratch []byte
				compared, mismatches := 0, 0
				// key is stateKey into buf, checked against the definition.
				key := func(buf *[]byte, m *tso.Machine) string {
					got := w.stateKey(buf, m).key
					cm, _ := ref.Canonicalize(m)
					want = e.collapser.Collapse(cm, want[:0], &scratch)
					compared++
					if !bytes.Equal(got, want) {
						if mismatches++; mismatches <= 3 {
							t.Errorf("key %d: engine %x, definition %x", compared, got, want)
						}
					}
					return string(got)
				}
				seen := make(map[string]bool)
				stack := []*tso.Machine{root}
				for len(stack) > 0 && len(seen) < limit {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					k := key(&w.fpBuf, m)
					if seen[k] {
						w.recycle(m)
						continue
					}
					seen[k] = true
					enabled := e.model.Enabled(nil, m)
					w.pl.fullExpand(enabled)
					if e.red != nil {
						e.red.analyze(m, enabled, &w.pl)
						for skip := uint32(0); w.pl.ample; e.red.choose(m, enabled, &w.pl, skip) {
							tripped := false
							for _, i := range w.pl.tidx {
								c := w.clone(m)
								e.model.Apply(c, enabled[i])
								tripped = tripped || seen[key(&w.probeBuf, c)]
								w.recycle(c)
							}
							if !tripped {
								break
							}
							skip |= 1 << uint(enabled[w.pl.tidx[0]].Proc)
						}
					}
					for k, i := range w.pl.tidx {
						c := m
						if k < len(w.pl.tidx)-1 {
							c = w.clone(m)
						}
						e.model.Apply(c, enabled[i])
						stack = append(stack, c)
					}
				}
				rotated, misses := w.canon.KeyStats()
				t.Logf("%d orbits, %d keys compared, %d mismatches; %d rotated, %d map misses", len(seen), compared, mismatches, rotated, misses)
				if rotated == 0 || misses*10 > rotated {
					t.Errorf("%d rotated keys, %d map misses: the maps were not what answered", rotated, misses)
				}
			})
		}
	}
}
