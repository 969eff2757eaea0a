package litmus

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// diffSpaces is the differential corpus for the representation-level
// features: the full classic catalog plus the Dekker fence variants,
// exactly the spaces TestSerialParallelEquivalence pins for the
// baseline engine.
func diffSpaces() []struct {
	name  string
	build func() *tso.Machine
	props []Property
} {
	type space = struct {
		name  string
		build func() *tso.Machine
		props []Property
	}
	var spaces []space
	for _, ct := range Catalog() {
		progs := ct.Build()
		cfg := arch.DefaultConfig()
		cfg.Procs = len(progs)
		cfg.MemWords = 16
		cfg.StoreBufferDepth = 4
		spaces = append(spaces, space{
			name:  "catalog/" + ct.Name,
			build: func() *tso.Machine { return tso.NewMachine(cfg, progs...) },
		})
	}
	for _, v := range []programs.DekkerVariant{
		programs.DekkerNoFence, programs.DekkerMfence, programs.DekkerLmfence,
	} {
		p0, p1 := programs.DekkerPair(v)
		spaces = append(spaces, space{
			name:  "dekker/" + v.String(),
			build: machineFor(p0, p1),
			props: []Property{MutualExclusion},
		})
	}
	return spaces
}

// requireExactMatch asserts the strong differential contract: identical
// state graph statistics and outcome histograms, and a replayable
// counterexample when one was recorded.
func requireExactMatch(t *testing.T, tag string, got, want Result, build func() *tso.Machine) {
	t.Helper()
	if got.States != want.States {
		t.Errorf("%s: States=%d, reference=%d", tag, got.States, want.States)
	}
	if got.Transitions != want.Transitions {
		t.Errorf("%s: Transitions=%d, reference=%d", tag, got.Transitions, want.Transitions)
	}
	if got.Violations != want.Violations {
		t.Errorf("%s: Violations=%d, reference=%d", tag, got.Violations, want.Violations)
	}
	if got.Deadlocks != want.Deadlocks {
		t.Errorf("%s: Deadlocks=%d, reference=%d", tag, got.Deadlocks, want.Deadlocks)
	}
	if got.Truncated != want.Truncated {
		t.Errorf("%s: Truncated=%v, reference=%v", tag, got.Truncated, want.Truncated)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Errorf("%s: Outcomes diverge:\ngot:       %v\nreference: %v", tag, got.Outcomes, want.Outcomes)
	}
	if got.Violations > 0 {
		if m := Replay(build, got.ViolationTrace); !m.CSViolation {
			t.Errorf("%s: violation trace does not replay to a violation", tag)
		}
	}
}

// TestCollapseDifferential pins the collapsed visited set against the
// serial reference over the full catalog: collapse compression changes
// only how states are keyed (interned component tuples instead of flat
// fingerprints), so every statistic must match exactly — a divergence
// means two distinct states collided in the collapsed encoding or one
// state produced two encodings.
func TestCollapseDifferential(t *testing.T) {
	for _, sp := range diffSpaces() {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			serial := ExploreSerial(sp.build, Options{Properties: sp.props})
			for _, workers := range []int{1, 4} {
				par := Explore(sp.build, Options{
					Properties: sp.props, Workers: workers, Collapse: true,
				})
				requireExactMatch(t, fmt.Sprintf("collapse/workers=%d", workers), par, serial, sp.build)
				if par.Obs.Gauges["collapse"] != 1 {
					t.Errorf("workers=%d: collapse gauge not set", workers)
				}
				if par.Obs.Gauges["peak_visited_bytes"] <= 0 {
					t.Errorf("workers=%d: peak_visited_bytes missing", workers)
				}
			}
		})
	}
}

// spillBudget is a memory budget a space of the given unreduced state
// count overruns in either key mode: 32 KB, or for a space of fewer than
// 4,096 states 8 bytes a state, well under the 96 bytes of the first
// table of each stripe its states land in.
func spillBudget(states int) int64 { return min(32<<10, 8*int64(states)) }

// requireSpilled asserts a budgeted hashed run evicted to disk. A
// collapsed run's stripes are larger (arena plus table), so its legs
// spill at least as early; the hashed legs are the ones that show the
// budget is not a collapsed-only path.
func requireSpilled(t *testing.T, tag string, res Result) {
	t.Helper()
	if res.Keys() == KeysHashed && res.Obs.Counters["visited_spill_events"] == 0 {
		t.Errorf("%s: hashed run never spilled (%d states)", tag, res.States)
	}
}

// TestSpillDifferential runs the same corpus under a deliberately tiny
// memory budget so the visited set is forced to evict stripes to spill
// segments mid-run, in both key modes. The contract is "slower, never
// truncated": every statistic still matches the in-memory reference
// exactly.
func TestSpillDifferential(t *testing.T) {
	for _, sp := range diffSpaces() {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			serial := ExploreSerial(sp.build, Options{Properties: sp.props})
			for _, collapse := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					par := Explore(sp.build, Options{
						Properties: sp.props, Workers: workers, MemBudget: spillBudget(serial.States), Collapse: collapse,
					})
					tag := fmt.Sprintf("spill/collapse=%v/workers=%d", collapse, workers)
					requireExactMatch(t, tag, par, serial, sp.build)
					requireSpilled(t, tag, par)
				}
			}
		})
	}
}

// TestSpillRoundTrip forces heavy eviction on a space with a reachable
// violation and checks the full spill lifecycle in both key modes: spill
// events happen, states are served back out of segments (the run stays
// exact), and a counterexample discovered while most of the visited set
// lives on disk still replays. Run under -race this also exercises the
// spill path's locking.
func TestSpillRoundTrip(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(p0, p1)
	serial := ExploreSerial(build, Options{Properties: []Property{MutualExclusion}})
	for _, collapse := range []bool{false, true} {
		tag := fmt.Sprintf("tiny-budget/collapse=%v", collapse)
		res := Explore(build, Options{
			Properties: []Property{MutualExclusion},
			Workers:    4,
			MemBudget:  4 << 10, // a few KB: far below the space's footprint
			Collapse:   collapse,
		})
		requireExactMatch(t, tag, res, serial, build)
		if res.Obs.Counters["visited_spill_events"] == 0 {
			t.Fatalf("%s: budget never triggered a spill", tag)
		}
		if res.Obs.Counters["visited_spilled_states"] == 0 {
			t.Fatalf("%s: no states were spilled", tag)
		}
		if res.Obs.Gauges["visited_spill_disabled"] != 0 {
			t.Fatalf("%s: spilling was disabled by an I/O failure", tag)
		}
		if res.Violations == 0 {
			t.Fatalf("%s: nofence Dekker must violate mutual exclusion", tag)
		}
	}
}

// TestSpillWithReduction combines the budgeted set with the partial
// order reduction, in both key modes: entries spill only once finalized,
// and duplicate arrivals must still find the pruned masks in the
// segments. The reduced parallel engine is arrival-order dependent, so
// the assertions are the reduction contract (verdicts, outcomes,
// deadlocks), not state counts.
func TestSpillWithReduction(t *testing.T) {
	for _, sp := range diffSpaces() {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			full := ExploreSerial(sp.build, Options{Properties: sp.props})
			for _, collapse := range []bool{false, true} {
				red := Explore(sp.build, Options{
					Properties: sp.props, Workers: 4, Reduction: true, MemBudget: spillBudget(full.States), Collapse: collapse,
				})
				tag := fmt.Sprintf("collapse=%v", collapse)
				if !reflect.DeepEqual(red.Outcomes, full.Outcomes) {
					t.Errorf("%s: Outcomes diverge:\nreduced:   %v\nreference: %v", tag, red.Outcomes, full.Outcomes)
				}
				if red.Deadlocks != full.Deadlocks {
					t.Errorf("%s: Deadlocks=%d, reference=%d", tag, red.Deadlocks, full.Deadlocks)
				}
				if (red.Violations > 0) != (full.Violations > 0) {
					t.Errorf("%s: violation verdict %v, reference %v", tag, red.Violations > 0, full.Violations > 0)
				}
				if red.Violations > 0 {
					if m := Replay(sp.build, red.ViolationTrace); !m.CSViolation {
						t.Errorf("%s: violation trace does not replay to a violation", tag)
					}
				}
				requireSpilled(t, tag, red)
			}
		})
	}
}

// symSpaces are the symmetric N-process instances used by the symmetry
// tests: every generator, fence variant, and class size the tests can
// afford exhaustively.
func symSpaces(maxN int) []*programs.SymProtocol {
	var sps []*programs.SymProtocol
	for n := 2; n <= maxN; n++ {
		for _, v := range []programs.DekkerVariant{
			programs.DekkerNoFence, programs.DekkerMfence, programs.DekkerLmfence,
		} {
			sps = append(sps, programs.BakeryN(n, v), programs.PetersonN(n, v))
		}
	}
	return sps
}

// TestSymmetryOrbitProperty is the canonicalization soundness property:
// executing a rotated action sequence from the (ring-symmetric) root
// yields the rotated machine, so both executions must canonicalize to
// the same representative and fingerprint. Randomized walks with a
// fixed seed cover states deep in the graph, where store buffers, cache
// lines, and pid-valued words are all populated. The declared group is
// cyclic, so only rotations are legal here — an arbitrary permutation
// would NOT preserve the state graph (a bystander thread's peer-scan
// order observes it), which an earlier version of this test proved by
// diverging at n=3.
func TestSymmetryOrbitProperty(t *testing.T) {
	for _, sp := range symSpaces(3) {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5eed))
			n := len(sp.Progs)
			canon := tso.NewCanonicalizer(sp.Sym, sp.Build())
			for walk := 0; walk < 30; walk++ {
				// Random rotation of the processor ring.
				rot := 1 + rng.Intn(n-1)
				perm := make([]int, n)
				for i := range perm {
					perm[i] = (i + rot) % n
				}
				m1 := sp.Build()
				m2 := sp.Build()
				for step := 0; step < 40; step++ {
					enabled := tsoModel{}.Enabled(nil, m1)
					if len(enabled) == 0 {
						break
					}
					a := enabled[rng.Intn(len(enabled))]
					replayApply(m1, a)
					// The same action under the rotation; enabledness
					// transfers because the root is ring-symmetric.
					pa := Action{Proc: arch.ProcID(perm[int(a.Proc)]), Kind: a.Kind}
					replayApply(m2, pa)
				}
				cm1, _ := canon.Canonicalize(m1)
				fp1 := append([]byte(nil), cm1.Fingerprint(nil)...)
				cm2, _ := canon.Canonicalize(m2)
				fp2 := cm2.Fingerprint(nil)
				if string(fp1) != string(fp2) {
					t.Fatalf("walk %d: permuted execution does not canonicalize to the same state", walk)
				}
			}
		})
	}
}

// TestSymmetryDistinctStatesStayDistinct guards against the opposite
// failure: canonicalization merging states that are NOT related by a
// rotation. Each rotation orbit has at most n members, so a sound
// reduction shrinks the state count by at most a factor of n; anything
// beyond it means inequivalent states collided. (This bound is what
// exposed the original S_n design: sorting-based canonicalization
// merged bakery3 well past the n! bound's sibling check.)
func TestSymmetryDistinctStatesStayDistinct(t *testing.T) {
	for _, sp := range symSpaces(2) {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			plain := ExploreSerial(sp.Build, Options{})
			sym := ExploreSerial(sp.Build, Options{Symmetry: sp.Sym})
			n := len(sp.Progs)
			if sym.States*n < plain.States {
				t.Errorf("symmetry over-merged: %d canonical states x %d < %d plain states",
					sym.States, n, plain.States)
			}
			if sym.States > plain.States {
				t.Errorf("symmetry grew the space: %d canonical vs %d plain", sym.States, plain.States)
			}
		})
	}
}

// TestSymmetryDifferential pins the parallel symmetric engine against
// the serial symmetric reference. Because outcomes are recorded from
// the canonical representative, the match is exact — including the
// outcome histogram — whichever orbit member each engine happens to
// reach first. Verdicts must also agree with the unreduced asymmetric
// reference.
func TestSymmetryDifferential(t *testing.T) {
	for _, sp := range symSpaces(2) {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			plain := ExploreSerial(sp.Build, Options{Properties: []Property{MutualExclusion}})
			serialSym := ExploreSerial(sp.Build, Options{
				Properties: []Property{MutualExclusion}, Symmetry: sp.Sym,
			})
			if (serialSym.Violations > 0) != (plain.Violations > 0) {
				t.Errorf("symmetry changed the verdict: %v vs %v",
					serialSym.Violations > 0, plain.Violations > 0)
			}
			for _, workers := range []int{1, 4} {
				for _, collapse := range []bool{false, true} {
					par := Explore(sp.Build, Options{
						Properties: []Property{MutualExclusion},
						Workers:    workers,
						Symmetry:   sp.Sym,
						Collapse:   collapse,
					})
					tag := fmt.Sprintf("workers=%d collapse=%v", workers, collapse)
					requireExactMatch(t, tag, par, serialSym, sp.Build)
				}
			}
		})
	}
}

// TestSymmetryBystanderDifferential: a processor outside the ring is
// renamed differently from a member (its pid registers stay), so an
// exact-keyed run, which renames component ids rather than machines,
// must not answer for a bystander's core with what it learned from a
// member's equal encoding. ringSB3's bystander passes through such an
// encoding; the parallel engine must match the serial reference exactly.
func TestSymmetryBystanderDifferential(t *testing.T) {
	build, sym := ringSB3(true)
	ref := ExploreSerial(build, Options{Symmetry: sym})
	for _, collapse := range []bool{false, true} {
		par := Explore(build, Options{Workers: 2, Symmetry: sym, Collapse: collapse})
		requireExactMatch(t, fmt.Sprintf("collapse=%v", collapse), par, ref, build)
		if rotated, misses := par.Obs.Counters["symmetry_rotated_keys"], par.Obs.Counters["symmetry_map_misses"]; collapse && (rotated == 0 || misses*10 > rotated) {
			t.Errorf("%d rotated keys, %d map misses: the id maps were not what answered", rotated, misses)
		}
	}
}

// loopRing is a C_n ring whose members cycle: member i raises flag[i]
// and gives up if its successor's flag is already up (a straight-line
// doorway), else spins storing to its own word priv[i] until a bystander
// releaser's go word lands, then enters the critical section. The spin
// closes state cycles through ample candidates; the doorway and the CS
// lie outside every loop span. n is at most 3 (the blocks fill words 1–6).
func loopRing(n int) *programs.SymProtocol {
	const flag0, priv0, goWord = arch.Addr(1), arch.Addr(4), arch.Addr(7)
	sp := &programs.SymProtocol{Name: fmt.Sprintf("loopring%d", n)}
	ring := make([]arch.ProcID, n)
	for i := 0; i < n; i++ {
		ring[i] = arch.ProcID(i)
		sp.Progs = append(sp.Progs, tso.NewBuilder(fmt.Sprintf("loopring%d-t%d", n, i)).
			StoreI(flag0+arch.Addr(i), 1).
			Load(1, flag0+arch.Addr((i+1)%n)).
			Bne(1, 0, "out").
			Label("L").StoreI(priv0+arch.Addr(i), 1).Load(3, goWord).Beq(3, 0, "L").
			CSEnter().CSExit().
			Label("out").Halt().
			Build())
	}
	sp.Progs = append(sp.Progs, tso.NewBuilder("release").StoreI(goWord, 1).Halt().Build())
	sp.Cfg = arch.DefaultConfig()
	sp.Cfg.Procs, sp.Cfg.MemWords, sp.Cfg.StoreBufferDepth = len(sp.Progs), 8, 1
	sp.Sym = &tso.Symmetry{
		Procs:  ring,
		Blocks: []tso.SymBlock{{Base: flag0, Stride: 1}, {Base: priv0, Stride: 1}},
	}
	return sp
}

// TestSymmetryReducedDifferential layers all three features: symmetry,
// POR, and the budgeted set, hashed and collapsed. Outcomes and
// deadlocks follow the reduction contract against the symmetric
// unreduced reference. The looped ring is the leg on which the cycle
// proviso probes and demotes under symmetry (C_2 here, which keeps the
// race lane short; TestLoopIntervalsCoverStateCycles walks loopRing(3)'s
// C_3 quotient).
func TestSymmetryReducedDifferential(t *testing.T) {
	for _, sp := range append(symSpaces(2), loopRing(2)) {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			ref := ExploreSerial(sp.Build, Options{
				Properties: []Property{MutualExclusion}, Symmetry: sp.Sym,
			})
			check := func(tag string, red Result) {
				t.Helper()
				if !reflect.DeepEqual(red.Outcomes, ref.Outcomes) {
					t.Errorf("%s: Outcomes diverge:\nreduced:   %v\nreference: %v", tag, red.Outcomes, ref.Outcomes)
				}
				if red.Deadlocks != ref.Deadlocks {
					t.Errorf("%s: Deadlocks=%d, reference=%d", tag, red.Deadlocks, ref.Deadlocks)
				}
				if (red.Violations > 0) != (ref.Violations > 0) {
					t.Errorf("%s: verdict %v, reference %v", tag, red.Violations > 0, ref.Violations > 0)
				}
				if red.States > ref.States {
					t.Errorf("%s: reduced exploration grew: %d vs %d", tag, red.States, ref.States)
				}
				if red.Violations > 0 {
					if m := Replay(sp.Build, red.ViolationTrace); !m.CSViolation {
						t.Errorf("%s: violation trace does not replay", tag)
					}
				}
			}
			check("serial", ExploreSerial(sp.Build, Options{
				Properties: []Property{MutualExclusion}, Symmetry: sp.Sym, Reduction: true,
			}))
			for _, collapse := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					tag := fmt.Sprintf("parallel/collapse=%v/workers=%d", collapse, workers)
					res := Explore(sp.Build, Options{
						Properties: []Property{MutualExclusion},
						Workers:    workers,
						Symmetry:   sp.Sym,
						Reduction:  true,
						MemBudget:  spillBudget(ref.States),
						Collapse:   collapse,
					})
					check(tag, res)
					requireSpilled(t, tag, res)
				}
			}
		})
	}
}

// requireExactAtScale is the shared body of the scaling acceptance
// checks: the space must close exactly (no truncation) past the
// engine's default state cap — where the pre-budget checker simply
// truncated and proved nothing — with the budgeted visited set
// spilling states to disk mid-run, and the protocol's safety verdict
// must hold.
func requireExactAtScale(t *testing.T, name string, res Result) {
	t.Helper()
	if res.Truncated {
		t.Fatalf("%s truncated under budget; the point is exact checking", name)
	}
	if res.Violations != 0 {
		t.Fatalf("%s must be safe, got violation %v", name, res.FirstViolation)
	}
	if res.Deadlocks != 0 {
		t.Fatalf("%s deadlocked %d times", name, res.Deadlocks)
	}
	if res.States <= DefaultMaxStates {
		t.Fatalf("space too small to demonstrate scaling: %d states", res.States)
	}
	if res.Obs.Counters["visited_spill_events"] == 0 {
		t.Fatalf("%s: budget never spilled on a multimillion-state space", name)
	}
	t.Logf("%s: %d orbits exact, %d spill events, %d states spilled",
		name, res.States,
		res.Obs.Counters["visited_spill_events"],
		res.Obs.Counters["visited_spilled_states"])
}

// skipUnlessHeavy gates the minutes-long exhaustive runs: they would
// blow the package's default go-test timeout, so they only run when
// LITMUS_HEAVY is set (CI's compression job gives them a dedicated
// step with an explicit -timeout).
func skipUnlessHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long exhaustive run")
	}
	if os.Getenv("LITMUS_HEAVY") == "" {
		t.Skip("minutes-long exhaustive run; set LITMUS_HEAVY=1 to enable")
	}
}

// TestPeterson3ExactUnderBudget is the scaling acceptance check on the
// largest N-process space that closes at CI scale: 3-process Peterson
// with l-mfence, 3,799,065 canonical orbits and 12,994,250 transitions
// under C_3 symmetry without reduction — past the 2M default state cap
// (the engine demonstrably truncates this space without a raised cap)
// and several times what a 64MB visited set holds resident, so the
// budgeted set spills to disk mid-run and still answers exactly. The run
// keeps every orbit under sleep sets alone, so it also holds sleep
// masks, symmetry and spilled entries together at scale to the
// unreduced counts.
func TestPeterson3ExactUnderBudget(t *testing.T) {
	skipUnlessHeavy(t)
	sp := programs.PetersonN(3, programs.DekkerLmfence)
	res := Explore(sp.Build, Options{
		Properties: []Property{MutualExclusion},
		MaxStates:  20_000_000,
		Symmetry:   sp.Sym,
		MemBudget:  64 << 20,
		Collapse:   true,
	})
	requireExactAtScale(t, "peterson3-lmfence", res)
	if res.States != 3_799_065 || res.Transitions != 12_994_250 {
		t.Errorf("%d orbits, %d transitions; want 3,799,065 and 12,994,250", res.States, res.Transitions)
	}
	if res.Obs.Counters["por_slept_transitions"] == 0 {
		t.Error("no edge slept: the run did not take the sleep-set path")
	}
}

// A note on N=4: the sound C_4 orbit space of the 4-process bakery is
// far larger than the earlier unsound over-merging canonicalization
// suggested (which reported ~4M orbits). Measured floors: >20M orbits
// at store-buffer depth 2 and at depth 1, and a depth-1 budgeted run
// was still expanding past ~75M orbits after 26 CPU-minutes at the
// engine's ~50k orbits/sec. Exhaustively closing bakery4 is an
// engine-throughput problem (ROADMAP item 4's distributed sharding),
// not a memory problem — the 64MB-budgeted set held resident bytes
// flat for the whole measured prefix — so the scaling acceptance here
// pins the largest space that closes at CI scale instead.
