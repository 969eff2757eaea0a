package litmus

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/tso"
)

// outcomesHash folds an outcome histogram into one number, in sorted
// order and through the standard library's FNV so it shares nothing
// with the engine's own hashing.
func outcomesHash(r Result) uint64 {
	keys := make([]string, 0, len(r.Outcomes))
	for o := range r.Outcomes {
		keys = append(keys, string(o))
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\x00%d\n", k, r.Outcomes[Outcome(k)])
	}
	return h.Sum64()
}

// serialPins holds ExploreSerial, the oracle every differential test
// trusts, to absolute numbers: recorded at commit 61917c3, when the
// reduced and unreduced searches were still two separate loops, over
// the reduction corpus (catalog, classic protocols, the cyclic and mixed
// spaces) and the 2-process symmetric generators with and without
// their declared symmetry.
//
// The reduced rows of loop-free programs were re-pinned against parent
// commit 42e5d3d when the cycle proviso stopped probing candidates that
// cannot lie on a cycle (reducer.mayCycle): their states were demoted to
// full expansion whenever an ample successor had been reached along
// another path, though no cycle could close. Fewer states, transitions
// and violating states; unreduced rows, outcome hashes and both cyclic
// spaces are unchanged. dekker/nofence is back at 571, its figure before
// the proviso existed.
//
// The three reduced cycle/* rows were re-pinned against parent commit
// c84c971 when an ample set that the sleep set puts wholly asleep on a
// possible cycle started demoting to full expansion (reduce.go,
// "Asleep ample sets"): before, such a state expanded nothing, and the
// spinner spaces lost every violation. More states, transitions and
// violating states there; loop-free rows, unreduced rows and outcome
// hashes are unchanged.
var serialPins = []struct {
	name                string
	reduction, symmetry bool
	states, transitions int
	violations          int
	deadlocks           int
	outcomes            uint64
}{
	{"catalog/SB", false, false, 77, 156, 0, 0, 0xb153e8503e2b2165},
	{"catalog/SB", true, false, 37, 36, 0, 0, 0xb153e8503e2b2165},
	{"catalog/SB+mfence", false, false, 52, 92, 0, 0, 0x8b53fad1d9e54b11},
	{"catalog/SB+mfence", true, false, 27, 31, 0, 0, 0x8b53fad1d9e54b11},
	{"catalog/SB+lmfence", false, false, 90, 182, 0, 0, 0x8b53fad1d9e54b11},
	{"catalog/SB+lmfence", true, false, 56, 80, 0, 0, 0x8b53fad1d9e54b11},
	{"catalog/MP", false, false, 52, 93, 0, 0, 0x3d754c096aef493e},
	{"catalog/MP", true, false, 20, 19, 0, 0, 0x3d754c096aef493e},
	{"catalog/LB", false, false, 56, 102, 0, 0, 0x265865045a8a1d6d},
	{"catalog/LB", true, false, 23, 22, 0, 0, 0x265865045a8a1d6d},
	{"catalog/2+2W", false, false, 265, 505, 0, 0, 0x914a71aada583cdf},
	{"catalog/2+2W", true, false, 135, 163, 0, 0, 0x914a71aada583cdf},
	{"catalog/CoRR", false, false, 75, 126, 0, 0, 0x846f28db1bed8659},
	{"catalog/CoRR", true, false, 28, 27, 0, 0, 0x846f28db1bed8659},
	{"catalog/WRC", false, false, 254, 605, 0, 0, 0x3d445d10cf1715da},
	{"catalog/WRC", true, false, 55, 54, 0, 0, 0x3d445d10cf1715da},
	{"catalog/RWC", false, false, 296, 735, 0, 0, 0x4e43e28940159679},
	{"catalog/RWC", true, false, 73, 72, 0, 0, 0x4e43e28940159679},
	{"catalog/IRIW", false, false, 1116, 3288, 0, 0, 0x2af090f07e97d6ba},
	{"catalog/IRIW", true, false, 143, 142, 0, 0, 0x2af090f07e97d6ba},
	{"dekker/nofence", false, false, 1759, 4710, 490, 0, 0xa527606932e61dea},
	{"dekker/nofence", true, false, 571, 602, 164, 0, 0xa527606932e61dea},
	{"dekker/mfence", false, false, 524, 1136, 0, 0, 0xda3f2f41161b3d26},
	{"dekker/mfence", true, false, 197, 208, 0, 0, 0xda3f2f41161b3d26},
	{"dekker/lmfence", false, false, 742, 1749, 0, 0, 0xda3f2f41161b3d26},
	{"dekker/lmfence", true, false, 358, 425, 0, 0, 0xda3f2f41161b3d26},
	{"dekker/lmfence-mirrored", false, false, 1059, 2682, 0, 0, 0xda3f2f41161b3d26},
	{"dekker/lmfence-mirrored", true, false, 623, 946, 0, 0, 0xda3f2f41161b3d26},
	{"peterson/nofence", false, false, 3326, 8656, 436, 0, 0xfa2335a46a202a9c},
	{"peterson/nofence", true, false, 1066, 1146, 132, 0, 0xfa2335a46a202a9c},
	{"peterson/mfence", false, false, 953, 1948, 0, 0, 0xa4f4ce5187c76b52},
	{"peterson/mfence", true, false, 337, 361, 0, 0, 0xa4f4ce5187c76b52},
	{"bakery/nofence", false, false, 15250, 42363, 902, 0, 0xac35088265208b0c},
	{"bakery/nofence", true, false, 3998, 4242, 279, 0, 0xac35088265208b0c},
	{"bakery/mfence", false, false, 2659, 5450, 0, 0, 0xfd75c627fb5360ca},
	{"bakery/mfence", true, false, 899, 985, 0, 0, 0xfd75c627fb5360ca},
	{"cycle/jmpself", false, false, 24, 58, 9, 0, 0xcbf29ce484222325},
	{"cycle/jmpself", true, false, 20, 23, 8, 0, 0xcbf29ce484222325},
	{"cycle/privspin", false, false, 696, 2210, 261, 0, 0xcbf29ce484222325},
	{"cycle/privspin", true, false, 200, 235, 72, 0, 0xcbf29ce484222325},
	{"cycle/doorway-spin", false, false, 32291, 131560, 2592, 0, 0x29975e273268745a},
	{"cycle/doorway-spin", true, false, 6163, 6715, 1152, 0, 0x29975e273268745a},
	{"cycle/spin-doorway", false, false, 21813, 88011, 1152, 0, 0x29975e273268745a},
	{"cycle/spin-doorway", true, false, 4545, 6968, 459, 0, 0x29975e273268745a},
	{"bakery2-nofence", false, false, 14498, 40390, 484, 0, 0x196339f42f028534},
	{"bakery2-nofence", true, false, 3535, 3745, 123, 0, 0x196339f42f028534},
	{"bakery2-nofence", false, true, 7304, 20357, 253, 0, 0x7ec4407a64a34ae9},
	{"bakery2-nofence", true, true, 3082, 4284, 133, 0, 0x7ec4407a64a34ae9},
	{"peterson2-nofence", false, false, 3415, 8962, 436, 0, 0x4ada86e3a986434e},
	{"peterson2-nofence", true, false, 1005, 1085, 132, 0, 0x4ada86e3a986434e},
	{"peterson2-nofence", false, true, 1724, 4540, 223, 0, 0x8dfacbab53bb739e},
	{"peterson2-nofence", true, true, 772, 1090, 112, 0, 0x8dfacbab53bb739e},
	{"bakery2-mfence", false, false, 2767, 5686, 0, 0, 0x4b71bf44efc9dd3c},
	{"bakery2-mfence", true, false, 913, 999, 0, 0, 0x4b71bf44efc9dd3c},
	{"bakery2-mfence", false, true, 1396, 2872, 0, 0, 0x85b61c6c8aaedbde},
	{"bakery2-mfence", true, true, 561, 699, 0, 0, 0x85b61c6c8aaedbde},
	{"peterson2-mfence", false, false, 959, 1964, 0, 0, 0x85820899e9daa9af},
	{"peterson2-mfence", true, false, 333, 356, 0, 0, 0x85820899e9daa9af},
	{"peterson2-mfence", false, true, 482, 990, 0, 0, 0xa35ee3e465234ee0},
	{"peterson2-mfence", true, true, 207, 259, 0, 0, 0xa35ee3e465234ee0},
	{"bakery2-lmfence", false, false, 7858, 20324, 0, 0, 0x5cdcd82684fab651},
	{"bakery2-lmfence", true, false, 3596, 5055, 0, 0, 0x5cdcd82684fab651},
	{"bakery2-lmfence", false, true, 3954, 10229, 0, 0, 0xb3cdda040d9766d8},
	{"bakery2-lmfence", true, true, 2299, 3845, 0, 0, 0xb3cdda040d9766d8},
	{"peterson2-lmfence", false, false, 2647, 6262, 0, 0, 0x4e24ee8749a9c5b},
	{"peterson2-lmfence", true, false, 1230, 1937, 0, 0, 0x4e24ee8749a9c5b},
	{"peterson2-lmfence", false, true, 1326, 3138, 0, 0, 0x2f1740f1eb4f5ad3},
	{"peterson2-lmfence", true, true, 682, 1156, 0, 0, 0x2f1740f1eb4f5ad3},
}

func TestExploreSerialPins(t *testing.T) {
	type space struct {
		build func() *tso.Machine
		props []Property
		sym   *tso.Symmetry
	}
	spaces := map[string]space{}
	for _, sp := range reductionSpaces() {
		spaces[sp.name] = space{build: sp.build, props: sp.props}
	}
	for _, sp := range symSpaces(2) {
		spaces[sp.Name] = space{build: sp.Build, props: []Property{MutualExclusion}, sym: sp.Sym}
	}
	// The spinner family is held to the unreduced verdict by
	// TestReductionDifferential and carries no pins.
	pinned := len(reductionSpaces()) - len(spinnerSpaces())
	if len(serialPins) != 2*pinned+4*len(symSpaces(2)) {
		t.Fatalf("%d pins for %d + %d spaces", len(serialPins), pinned, len(symSpaces(2)))
	}
	for _, pin := range serialPins {
		sp, ok := spaces[pin.name]
		if !ok {
			t.Fatalf("pin names unknown space %q", pin.name)
		}
		opts := Options{Properties: sp.props, Reduction: pin.reduction}
		if pin.symmetry {
			opts.Symmetry = sp.sym
		}
		r := ExploreSerial(sp.build, opts)
		if r.States != pin.states || r.Transitions != pin.transitions || r.Violations != pin.violations ||
			r.Deadlocks != pin.deadlocks || outcomesHash(r) != pin.outcomes || r.Truncated {
			t.Errorf("%s reduction=%v symmetry=%v: states=%d transitions=%d violations=%d deadlocks=%d outcomes=%#x truncated=%v, pinned %d/%d/%d/%d/%#x",
				pin.name, pin.reduction, pin.symmetry, r.States, r.Transitions, r.Violations, r.Deadlocks, outcomesHash(r), r.Truncated,
				pin.states, pin.transitions, pin.violations, pin.deadlocks, pin.outcomes)
		}
	}
}
