package synth

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/programs"
	"repro/internal/tso"
)

// testOptions keeps test runs deterministic and bounded.
func testOptions() Options {
	return Options{Workers: 4, MaxStates: 500_000}
}

func mustProblem(t *testing.T, name string) Problem {
	t.Helper()
	p, err := LookupProblem(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustSynthesize(t *testing.T, name string, opts Options) *Result {
	t.Helper()
	res, err := Synthesize(mustProblem(t, name), opts)
	if err != nil {
		t.Fatalf("Synthesize(%s): %v", name, err)
	}
	if res.Unrepairable {
		t.Fatalf("Synthesize(%s): unrepairable; counterexample:\n%s", name, res.Counterexample)
	}
	if res.AssumptionViolated {
		t.Fatalf("Synthesize(%s): monotonicity assumption violated", name)
	}
	if res.Optimal == nil {
		t.Fatalf("Synthesize(%s): no optimal placement", name)
	}
	return res
}

// atomAt finds the placement's atom for a thread, requiring exactly one
// atom per thread overall.
func atomAt(t *testing.T, p Placement, thread int) Atom {
	t.Helper()
	var found *Atom
	for i := range p {
		if p[i].Thread == thread {
			if found != nil {
				t.Fatalf("placement %v has multiple atoms on thread %d", p, thread)
			}
			found = &p[i]
		}
	}
	if found == nil {
		t.Fatalf("placement %v has no atom on thread %d", p, thread)
	}
	return *found
}

func hasPlacement(minimal []Candidate, want Placement) bool {
	for _, c := range minimal {
		if c.Placement.key() == want.key() {
			return true
		}
	}
	return false
}

// TestSitesDekker pins candidate-site enumeration on the unfenced Dekker
// pair: each thread exposes its flag publish, the critical-section
// store, and the release store, all l-mfence-eligible.
func TestSitesDekker(t *testing.T) {
	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	sites := Sites([]*tso.Program{p0, p1})
	if len(sites) != 6 {
		t.Fatalf("got %d sites, want 6: %v", len(sites), sites)
	}
	want := []Site{
		{Thread: 0, Instr: 0, Addr: programs.AddrL1, AddrKnown: true, LmfenceOK: true},
		{Thread: 0, Instr: 5, Addr: programs.AddrCS0, AddrKnown: true, LmfenceOK: true},
		{Thread: 0, Instr: 8, Addr: programs.AddrL1, AddrKnown: true, LmfenceOK: true},
		{Thread: 1, Instr: 0, Addr: programs.AddrL2, AddrKnown: true, LmfenceOK: true},
		{Thread: 1, Instr: 5, Addr: programs.AddrCS0, AddrKnown: true, LmfenceOK: true},
		{Thread: 1, Instr: 8, Addr: programs.AddrL2, AddrKnown: true, LmfenceOK: true},
	}
	for i, w := range want {
		if sites[i] != w {
			t.Errorf("site %d = %+v, want %+v", i, sites[i], w)
		}
	}
}

// TestSynthesizeDekker is the tentpole acceptance test: from the
// unfenced Dekker pair and the mutual-exclusion property alone, the
// synthesizer must rediscover the paper's Fig. 3(a) placement — an
// l-mfence guarding the primary's flag plus a full mfence on the
// secondary — as the cost-optimal repair, with the four one-fence-per-
// thread kind combinations as the complete minimal frontier.
func TestSynthesizeDekker(t *testing.T) {
	res := mustSynthesize(t, "dekker", testOptions())

	opt := res.Optimal.Placement
	p0 := atomAt(t, opt, 0)
	p1 := atomAt(t, opt, 1)
	if p0.Kind != KindLmfence || p0.Instr != 0 || p0.Addr != programs.AddrL1 {
		t.Errorf("optimal primary atom = %v, want l-mfence at instr 0 guarding L1", p0)
	}
	if p1.Kind != KindMfence || p1.Instr != 0 {
		t.Errorf("optimal secondary atom = %v, want mfence at instr 0", p1)
	}

	// Weighted static cost of the asymmetric placement under the default
	// model: 100*(2+3+2) local l-mfence + 1*(60+10) mfence + 1*150 for
	// the secondary's single load of the guarded flag.
	if res.Optimal.Cost != 920 {
		t.Errorf("optimal cost = %v, want 920", res.Optimal.Cost)
	}

	// Every minimal placement is one fence per thread at the flag
	// publish; all four kind combinations are present.
	for _, c := range res.Minimal {
		for th := 0; th <= 1; th++ {
			a := atomAt(t, c.Placement, th)
			if a.Instr != 0 {
				t.Errorf("minimal placement %v fences instr %d on thread %d, want 0",
					c.Placement, a.Instr, th)
			}
		}
	}
	if len(res.Minimal) != 4 {
		t.Errorf("got %d minimal placements, want 4: %v", len(res.Minimal), res.Minimal)
	}
	for _, kinds := range [][2]FenceKind{
		{KindLmfence, KindMfence},
		{KindMfence, KindMfence},
		{KindLmfence, KindLmfence},
		{KindMfence, KindLmfence},
	} {
		want := Placement{
			{Thread: 0, Instr: 0, Kind: kinds[0], Addr: programs.AddrL1, AddrKnown: true},
			{Thread: 1, Instr: 0, Kind: kinds[1], Addr: programs.AddrL2, AddrKnown: true},
		}
		if !hasPlacement(res.Minimal, want) {
			t.Errorf("minimal set %v missing %v", res.Minimal, want)
		}
	}
}

// TestSynthesizeDekkerKindRestricted pins the -kind lattices: mfence-only
// synthesis lands on the traditional double-mfence fix, l-mfence-only on
// the mirrored guard (both of which the paper proves correct).
func TestSynthesizeDekkerKindRestricted(t *testing.T) {
	opts := testOptions()
	opts.AllowMfence = true
	res := mustSynthesize(t, "dekker", opts)
	if len(res.Minimal) != 1 {
		t.Fatalf("mfence-only: got %d minimal placements, want 1: %v", len(res.Minimal), res.Minimal)
	}
	for th := 0; th <= 1; th++ {
		if a := atomAt(t, res.Optimal.Placement, th); a.Kind != KindMfence || a.Instr != 0 {
			t.Errorf("mfence-only thread %d atom = %v, want mfence at instr 0", th, a)
		}
	}

	opts = testOptions()
	opts.AllowLmfence = true
	res = mustSynthesize(t, "dekker", opts)
	if len(res.Minimal) != 1 {
		t.Fatalf("lmfence-only: got %d minimal placements, want 1: %v", len(res.Minimal), res.Minimal)
	}
	for th := 0; th <= 1; th++ {
		if a := atomAt(t, res.Optimal.Placement, th); a.Kind != KindLmfence || a.Instr != 0 {
			t.Errorf("lmfence-only thread %d atom = %v, want l-mfence at instr 0", th, a)
		}
	}
}

// TestSynthesizeSB pins the store-buffering repair: one fence per thread
// between the store and the load, asymmetric split optimal under the
// default primary weight.
func TestSynthesizeSB(t *testing.T) {
	res := mustSynthesize(t, "sb", testOptions())
	if len(res.Minimal) != 4 {
		t.Fatalf("got %d minimal placements, want 4: %v", len(res.Minimal), res.Minimal)
	}
	for _, c := range res.Minimal {
		for th := 0; th <= 1; th++ {
			if a := atomAt(t, c.Placement, th); a.Instr != 0 {
				t.Errorf("minimal %v fences instr %d on thread %d, want 0", c.Placement, a.Instr, th)
			}
		}
	}
	p0 := atomAt(t, res.Optimal.Placement, 0)
	p1 := atomAt(t, res.Optimal.Placement, 1)
	if p0.Kind != KindLmfence || p0.Addr != programs.AddrX {
		t.Errorf("optimal P0 atom = %v, want l-mfence guarding x", p0)
	}
	if p1.Kind != KindMfence {
		t.Errorf("optimal P1 atom = %v, want mfence", p1)
	}
	if res.Optimal.Cost != 920 {
		t.Errorf("optimal cost = %v, want 920", res.Optimal.Cost)
	}
}

// TestSynthesizeMP pins the zero-fence case: TSO already forbids the
// message-passing outcome, so the empty placement is the unique minimal
// repair and the CEGAR loop finishes in one round.
func TestSynthesizeMP(t *testing.T) {
	res := mustSynthesize(t, "mp", testOptions())
	if len(res.Minimal) != 1 || res.Optimal.Placement.Len() != 0 {
		t.Fatalf("got minimal %v, want exactly the empty placement", res.Minimal)
	}
	if res.Optimal.Cost != 0 {
		t.Errorf("optimal cost = %v, want 0", res.Optimal.Cost)
	}
	if res.Rounds != 1 || res.Counterexamples != 0 {
		t.Errorf("rounds=%d cex=%d, want 1 round and 0 counterexamples",
			res.Rounds, res.Counterexamples)
	}
}

// TestSynthesizePeterson checks the synthesizer rediscovers the
// turn-store placement from internal/programs (guarding only the flag is
// the classic broken variant): every minimal repair fences the turn
// hand-over, and the optimal guards it with the primary's l-mfence.
func TestSynthesizePeterson(t *testing.T) {
	res := mustSynthesize(t, "peterson", testOptions())
	for _, c := range res.Minimal {
		for th := 0; th <= 1; th++ {
			if a := atomAt(t, c.Placement, th); a.Instr != 1 {
				t.Errorf("minimal %v fences instr %d on thread %d, want the turn store (1)",
					c.Placement, a.Instr, th)
			}
		}
	}
	p0 := atomAt(t, res.Optimal.Placement, 0)
	if p0.Kind != KindLmfence || p0.Addr != programs.AddrTurn {
		t.Errorf("optimal P0 atom = %v, want l-mfence guarding turn", p0)
	}
	if p1 := atomAt(t, res.Optimal.Placement, 1); p1.Kind != KindMfence {
		t.Errorf("optimal P1 atom = %v, want mfence", p1)
	}
}

// TestSynthesizeBakery runs the hardest registry instance. Notably the
// synthesizer beats the hand placement here: internal/programs fences
// two serialization points per thread (the discipline that generalizes),
// but for the single-shot bakery with thread-0 tie-breaking an
// asymmetric two-fence total suffices — which is exactly the kind of
// result synthesis exists to find, so the test independently re-verifies
// the optimum with a full exploration rather than assuming the hand
// answer.
func TestSynthesizeBakery(t *testing.T) {
	if testing.Short() {
		t.Skip("bakery synthesis explores many candidates; skipped in -short")
	}
	prob := mustProblem(t, "bakery")
	res := mustSynthesize(t, "bakery", testOptions())
	opt := res.Optimal.Placement

	threads := map[int]bool{}
	for _, a := range opt {
		threads[a.Thread] = true
	}
	if !threads[0] || !threads[1] {
		t.Errorf("optimal %v leaves a thread unfenced", opt)
	}

	check := func(p Placement) litmus.Result {
		progs := p.Apply(prob.Programs, DefaultScratchReg)
		return litmus.Explore(func() *tso.Machine { return tso.NewMachine(prob.Config, progs...) }, litmus.Options{
			Properties: []litmus.Property{prob.Property},
			Workers:    4,
		})
	}
	if r := check(opt); r.Violations != 0 {
		t.Fatalf("optimal placement %v violates under full exploration", opt)
	}
	for i := range opt {
		if r := check(opt.without(i)); r.Violations == 0 {
			t.Errorf("weakening %v of the optimum is already safe — not minimal", opt.without(i))
		}
	}
}

// TestSynthesizeUnrepairable: a violation that needs no TSO reordering
// cannot be fenced away, and the synthesizer must say so rather than
// search forever.
func TestSynthesizeUnrepairable(t *testing.T) {
	prog := tso.NewBuilder("always-bad").StoreI(programs.AddrX, 1).Halt().Build()
	prob := Problem{
		Name:     "always-bad",
		Programs: []*tso.Program{prog},
		Config:   ProblemConfig(),
		Property: ForbiddenQuiesced("x==1", func(m *tso.Machine) bool {
			return m.Mem(programs.AddrX) == 1
		}),
	}
	res, err := Synthesize(prob, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unrepairable {
		t.Fatalf("expected unrepairable, got %+v", res)
	}
	if res.Counterexample == "" {
		t.Error("unrepairable result carries no counterexample trace")
	}
	if res.Optimal != nil || len(res.Minimal) != 0 {
		t.Errorf("unrepairable result still reports placements: %v", res.Minimal)
	}
}

// TestSynthesizeBudget: a too-small exploration budget must surface as
// ErrBudget, never as a silently-trusted partial proof.
func TestSynthesizeBudget(t *testing.T) {
	opts := testOptions()
	opts.MaxStates = 10
	_, err := Synthesize(mustProblem(t, "dekker"), opts)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestOptimalPlacementsVerify replays the synthesized Dekker optimum
// through an independent full (non-early-stopping) exploration, closing
// the loop: the reported placement is not just internally consistent but
// exhaustively safe, and its one-atom weakenings are all unsafe.
func TestOptimalPlacementsVerify(t *testing.T) {
	prob := mustProblem(t, "dekker")
	res := mustSynthesize(t, "dekker", testOptions())

	check := func(p Placement) litmus.Result {
		progs := p.Apply(prob.Programs, DefaultScratchReg)
		return litmus.Explore(func() *tso.Machine { return tso.NewMachine(prob.Config, progs...) }, litmus.Options{
			Properties: []litmus.Property{prob.Property},
			Workers:    4,
		})
	}
	opt := res.Optimal.Placement
	if r := check(opt); r.Violations != 0 {
		t.Fatalf("optimal placement %v violates under full exploration", opt)
	}
	for i := range opt {
		if r := check(opt.without(i)); r.Violations == 0 {
			t.Errorf("weakening %v of the optimum is already safe — not minimal", opt.without(i))
		}
	}
}

// TestPlacementCostModel pins the cost formulas against the default
// model so optimizer rankings stay explainable.
func TestPlacementCostModel(t *testing.T) {
	cm := arch.DefaultCostModel()
	if c := mfenceUnitCost(cm); c != 70 {
		t.Errorf("mfence unit cost = %v, want 70", c)
	}
	if c := lmfenceLocalCost(cm); c != 7 {
		t.Errorf("l-mfence local cost = %v, want 7", c)
	}

	p0, p1 := programs.DekkerPair(programs.DekkerNoFence)
	progs := []*tso.Program{p0, p1}
	w := Options{}.weights(2)
	asym := Placement{
		{Thread: 0, Instr: 0, Kind: KindLmfence, Addr: programs.AddrL1, AddrKnown: true},
		{Thread: 1, Instr: 0, Kind: KindMfence, Addr: programs.AddrL2, AddrKnown: true},
	}
	if c := placementCost(asym, progs, cm, w); c != 920 {
		t.Errorf("asymmetric Dekker cost = %v, want 920", c)
	}
	double := Placement{
		{Thread: 0, Instr: 0, Kind: KindMfence, Addr: programs.AddrL1, AddrKnown: true},
		{Thread: 1, Instr: 0, Kind: KindMfence, Addr: programs.AddrL2, AddrKnown: true},
	}
	if c := placementCost(double, progs, cm, w); c != 7070 {
		t.Errorf("double-mfence Dekker cost = %v, want 7070", c)
	}
	mirrored := Placement{
		{Thread: 0, Instr: 0, Kind: KindLmfence, Addr: programs.AddrL1, AddrKnown: true},
		{Thread: 1, Instr: 0, Kind: KindLmfence, Addr: programs.AddrL2, AddrKnown: true},
	}
	if c := placementCost(mirrored, progs, cm, w); c != 15857 {
		t.Errorf("mirrored l-mfence Dekker cost = %v, want 15857", c)
	}
}

// TestHittingSets pins the frontier enumeration on a hand-built instance.
func TestHittingSets(t *testing.T) {
	a0 := Atom{Thread: 0, Instr: 0, Kind: KindLmfence}
	a0m := Atom{Thread: 0, Instr: 0, Kind: KindMfence}
	b0m := Atom{Thread: 1, Instr: 0, Kind: KindMfence}

	// No constraints: the empty placement is the whole frontier.
	hs, _ := minimalHittingSets(nil, 0)
	if len(hs) != 1 || hs[0].Len() != 0 {
		t.Fatalf("empty constraints: got %v, want [()]", hs)
	}

	// One constraint with kind alternatives: both kinds are frontier
	// members (alternatives, not orderings).
	hs, _ = minimalHittingSets([]constraint{{a0, a0m}}, 0)
	if len(hs) != 2 {
		t.Fatalf("got %v, want the two single-atom alternatives", hs)
	}

	// Needing mfence at a site where a weaker branch placed l-mfence
	// forces the upgrade rather than a second fence at the same site.
	hs, _ = minimalHittingSets([]constraint{{a0, b0m}, {a0m}}, 0)
	for _, p := range hs {
		if len(p) > 2 {
			t.Errorf("hitting set %v not minimal", p)
		}
		for _, a := range p {
			if a.Thread == 0 && a.Kind != KindMfence {
				t.Errorf("hitting set %v keeps a sub-mfence atom at a site that needs mfence", p)
			}
		}
	}
	// {mf@0} hits both; {lmf→mf upgrade} dedupes to it; {b0m, a0m} is
	// redundant (a0m alone hits both constraints).
	if len(hs) != 1 || hs[0].key() != (Placement{a0m}).key() {
		t.Errorf("got %v, want exactly {P0:mfence@0}", hs)
	}
}

// withSortSlice, hitsAt and irredundantByCopy are the definitions
// Placement.with, Placement.hits and irredundant are held to: a sort
// through sort.Slice, a site lookup per constraint element, and one
// without(i) copy per removed atom.
func withSortSlice(p Placement, a Atom) Placement {
	out := make(Placement, 0, len(p)+1)
	replaced := false
	for _, b := range p {
		if b.Thread == a.Thread && b.Instr == a.Instr {
			out = append(out, a)
			replaced = true
			continue
		}
		out = append(out, b)
	}
	if !replaced {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Thread != out[j].Thread {
			return out[i].Thread < out[j].Thread
		}
		return out[i].Instr < out[j].Instr
	})
	return out
}

func hitsAt(p Placement, c constraint) bool {
	for _, need := range c {
		if p.at(siteKey{need.Thread, need.Instr}) >= need.Kind {
			return true
		}
	}
	return false
}

func irredundantByCopy(p Placement, constraints []constraint) bool {
	for i := range p {
		w, all := p.without(i), true
		for _, c := range constraints {
			if !hitsAt(w, c) {
				all = false
				break
			}
		}
		if all {
			return false
		}
	}
	return true
}

// TestPlacementOpsMatchDefinitions drives Placement.with, hits and
// irredundant with seeded random placements and constraints over a few
// threads and sites, against the definitions above.
func TestPlacementOpsMatchDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	atom := func() Atom {
		return Atom{Thread: rng.Intn(3), Instr: rng.Intn(4), Kind: KindLmfence + FenceKind(rng.Intn(2))}
	}
	redundant := 0
	for trial := 0; trial < 3000; trial++ {
		var p Placement
		for n := rng.Intn(5); n > 0; n-- {
			a := atom()
			got, want := p.with(a), withSortSlice(p, a)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v.with(%v) = %v, want %v", p, a, got, want)
			}
			p = got
		}
		cs := make([]constraint, 1+rng.Intn(4))
		for i := range cs {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				cs[i] = append(cs[i], atom())
			}
			if got, want := p.hits(cs[i]), hitsAt(p, cs[i]); got != want {
				t.Fatalf("%v.hits(%v) = %v, want %v", p, cs[i], got, want)
			}
		}
		got, want := irredundant(p, cs), irredundantByCopy(p, cs)
		if got != want {
			t.Fatalf("irredundant(%v, %v) = %v, want %v", p, cs, got, want)
		}
		if !got {
			redundant++
		}
	}
	if redundant == 0 || redundant == 3000 {
		t.Errorf("%d of 3000 trials redundant: the generator exercises one answer only", redundant)
	}
}

// TestIrredundantDoesNotAllocate: the removal tests run in place.
func TestIrredundantDoesNotAllocate(t *testing.T) {
	a := Atom{Thread: 0, Instr: 1, Kind: KindMfence}
	b := Atom{Thread: 1, Instr: 2, Kind: KindLmfence}
	cs := []constraint{{a}, {b, {Thread: 0, Instr: 3, Kind: KindMfence}}}
	for _, p := range []Placement{{a, b}, {a, b, {Thread: 2, Instr: 0, Kind: KindMfence}}} {
		if n := testing.AllocsPerRun(100, func() { irredundant(p, cs) }); n != 0 {
			t.Errorf("irredundant(%v) allocates %v times a call", p, n)
		}
	}
}

// keyByFmt is the definition Placement.key is held to.
func keyByFmt(p Placement) string {
	parts := make([]string, len(p))
	for i, a := range p {
		parts[i] = fmt.Sprintf("%d.%d.%d", a.Thread, a.Instr, a.Kind)
	}
	return strings.Join(parts, "|")
}

// minimalHittingSetsByDefinition is the frontier enumeration
// minimalHittingSets is held to: the plain recursion, which expands a
// partial placement once per order its atoms can be added in and
// dedupes at the leaves. It also returns how many partial placements it
// expanded and how many of them were distinct.
func minimalHittingSetsByDefinition(constraints []constraint, maxFences int) (out []Placement, calls, distinct int) {
	seen := make(map[string]struct{})
	reached := make(map[string]struct{})

	var rec func(p Placement)
	rec = func(p Placement) {
		calls++
		reached[keyByFmt(p)] = struct{}{}
		var unhit constraint
		for _, c := range constraints {
			if !hitsAt(p, c) {
				unhit = c
				break
			}
		}
		if unhit == nil {
			if !irredundantByCopy(p, constraints) {
				return
			}
			k := keyByFmt(p)
			if _, dup := seen[k]; dup {
				return
			}
			seen[k] = struct{}{}
			out = append(out, p)
			return
		}
		for _, a := range unhit {
			cur := p.at(siteKey{a.Thread, a.Instr})
			if cur >= a.Kind {
				continue
			}
			if cur == KindNone && maxFences > 0 && p.Len() >= maxFences {
				continue
			}
			rec(withSortSlice(p, a))
		}
	}
	rec(Placement{})

	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return keyByFmt(out[i]) < keyByFmt(out[j])
	})
	return out, calls, len(reached)
}

// randomConstraints draws a constraint set over a few threads and sites
// with both kinds, often asking for an mfence at a site another
// constraint wants only an l-mfence at (the upgrade path).
func randomConstraints(rng *rand.Rand) []constraint {
	cs := make([]constraint, 1+rng.Intn(5))
	for i := range cs {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			cs[i] = append(cs[i], Atom{Thread: rng.Intn(3), Instr: rng.Intn(3), Kind: KindLmfence + FenceKind(rng.Intn(2))})
		}
	}
	return cs
}

// TestMinimalHittingSetsMatchesDefinition holds the frontier to the
// plain recursion on seeded constraint sets, with and without a fence
// cap: the same members in the same order, and every distinct partial
// placement expanded exactly once.
func TestMinimalHittingSetsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	saved := 0
	for trial := 0; trial < 3000; trial++ {
		cs, maxFences := randomConstraints(rng), rng.Intn(4)
		got, nodes := minimalHittingSets(cs, maxFences)
		want, calls, distinct := minimalHittingSetsByDefinition(cs, maxFences)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("constraints %v, maxFences %d: got %v, want %v", cs, maxFences, got, want)
		}
		if nodes != distinct {
			t.Fatalf("constraints %v, maxFences %d: expanded %d partial placements, %d distinct ones exist",
				cs, maxFences, nodes, distinct)
		}
		if calls > nodes {
			saved++
		}
	}
	if saved == 0 {
		t.Error("no trial reached a partial placement twice: the generator never exercises the memo")
	}
}

// TestPlacementKeyMatchesFmt holds Placement.key byte for byte to the
// fmt definition on seeded placements; a key costs one allocation, the
// string itself.
func TestPlacementKeyMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var longest Placement
	for trial := 0; trial < 3000; trial++ {
		var p Placement
		for n := rng.Intn(7); n > 0; n-- {
			p = p.with(Atom{Thread: rng.Intn(12), Instr: rng.Intn(300), Kind: KindLmfence + FenceKind(rng.Intn(2))})
		}
		if got, want := p.key(), keyByFmt(p); got != want {
			t.Fatalf("%v.key() = %q, want %q", p, got, want)
		}
		if len(p) > len(longest) {
			longest = p
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = longest.key() }); n > 1 {
		t.Errorf("%v.key() allocates %v times a call, want at most 1", longest, n)
	}
}
