package synth

import "sort"

// This file enumerates the CEGAR frontier: the irredundant hitting sets
// of the accumulated counterexample constraints. A placement hits a
// constraint when it fences one of the constraint's sites at least as
// strongly as the constraint demands; a hitting set is irredundant when
// removing any single atom stops it hitting some constraint. The
// frontier deliberately enumerates *kind alternatives* — an mfence and
// an l-mfence at the same site are distinct frontier members, not
// orderings of one another — because the kinds trade executing-thread
// cost against remote-touch cost and only verification plus the cost
// objective can arbitrate. With no constraints yet, the frontier is the
// single empty placement (round one always asks "does the unfenced
// program already satisfy the property?", which is how zero-fence
// problems like MP resolve).

// minimalHittingSets returns every irredundant placement hitting all
// constraints, deterministically ordered (fewest atoms first, then
// canonical key), and the number of partial placements it expanded.
// maxFences caps placement size when positive.
//
// The recursion reaches a partial placement once per order in which its
// atoms can be added, and what lies below a placement depends on the
// placement alone, so seen holds every placement reached, leaves
// included, and each is expanded once.
func minimalHittingSets(constraints []constraint, maxFences int) ([]Placement, int) {
	seen := make(map[string]struct{})
	var out []Placement
	var buf []byte

	var rec func(p Placement)
	rec = func(p Placement) {
		buf = p.appendKey(buf[:0])
		if _, dup := seen[string(buf)]; dup {
			return
		}
		seen[string(buf)] = struct{}{}
		// Find the first constraint p does not hit.
		var unhit constraint
		for _, c := range constraints {
			if !p.hits(c) {
				unhit = c
				break
			}
		}
		if unhit == nil {
			if irredundant(p, constraints) {
				out = append(out, p)
			}
			return
		}
		for _, a := range unhit {
			cur := p.at(siteKey{a.Thread, a.Instr})
			if cur >= a.Kind {
				continue // cannot happen for an unhit constraint, but be safe
			}
			grows := cur == KindNone
			if grows && maxFences > 0 && p.Len() >= maxFences {
				continue
			}
			// Either place the atom at a free site or upgrade the weaker
			// fence already there; with() does both.
			rec(p.with(a))
		}
	}
	rec(Placement{})

	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i].key() < out[j].key()
	})
	return out, len(seen)
}

// irredundant reports whether every atom of p is load-bearing: removing
// any one atom leaves some constraint unhit. Each removal is tested in
// place, without building the smaller placement.
func irredundant(p Placement, constraints []constraint) bool {
	for i := range p {
		if hitsAllWithout(p, i, constraints) {
			return false
		}
	}
	return true
}

// hitsAllWithout reports whether p, less its atom at index skip, hits
// every constraint.
func hitsAllWithout(p Placement, skip int, constraints []constraint) bool {
	for _, c := range constraints {
		if !p.hitsWithout(c, skip) {
			return false
		}
	}
	return true
}
