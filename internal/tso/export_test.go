package tso

import "bytes"

// ReferenceRotation picks m's canonical rotation the way Canonicalize
// did before signatures were split in two: every member's whole
// signature built up front, rotations compared on whole signatures. It
// is the reference the two-stage choice is held to.
func (c *Canonicalizer) ReferenceRotation(m *Machine) int {
	keys := make([][]byte, c.n)
	for k := range keys {
		keys[k] = c.sigTail(m, k, c.sigHead(m, k, nil))
	}
	best := 0
	for r := 1; r < c.n; r++ {
		for j := 0; j < c.n; j++ {
			cmp := bytes.Compare(keys[((j-r)%c.n+c.n)%c.n], keys[((j-best)%c.n+c.n)%c.n])
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

// ApplyRotation returns m renamed by rotation r (m itself for r == 0),
// in the canonicalizer's scratch machine.
func (c *Canonicalizer) ApplyRotation(m *Machine, r int) *Machine {
	if r == 0 {
		return m
	}
	c.applyRenaming(m, &c.rots[r-1])
	return c.scratch
}

// StaleComponents reports, for each state-key component in tuple order
// (core, store buffer and cache per processor, then memory), whether its
// stale flag is set, on the machine or in its mesi.System.
func (m *Machine) StaleComponents() []bool {
	out := make([]bool, 0, 3*len(m.Procs)+1)
	for i, p := range m.Procs {
		out = append(out, p.stale&staleCore != 0, p.stale&staleSB != 0,
			p.stale&staleCache != 0 || m.Sys.CacheDirty(i))
	}
	return append(out, m.memStale || m.Sys.MemDirty())
}

// IDMaps returns the id maps CollapsedKey has learned for rotation r, in
// map order (core, store buffer, cache, memory, bystander core), sharing
// their storage: a test can overwrite a recorded pair (an entry is the
// renamed id plus one) or zero it to make the canonicalizer forget it.
func (c *Canonicalizer) IDMaps(r int) [][]uint32 { return c.renamed[r-1][:] }
