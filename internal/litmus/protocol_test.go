package litmus

import (
	"strings"

	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// The paper (Section 2) claims the LE/ST mechanism adapts to MSI and
// MOESI. Machine-check that claim: the Dekker theorems and the litmus
// catalog must classify identically under every protocol flavour.
func TestDekkerTheoremsUnderAllProtocols(t *testing.T) {
	for _, proto := range []arch.Protocol{arch.MESI, arch.MSI, arch.MOESI} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			cfg := arch.DefaultConfig()
			cfg.Procs = 2
			cfg.MemWords = 16
			cfg.StoreBufferDepth = 4
			cfg.Protocol = proto

			check := func(v programs.DekkerVariant, wantViolation bool) {
				p0, p1 := programs.DekkerPair(v)
				build := func() *tso.Machine { return tso.NewMachine(cfg, p0, p1) }
				res := Explore(build, Options{Properties: []Property{MutualExclusion}})
				if res.Truncated || res.Deadlocks > 0 {
					t.Fatalf("%v/%v: truncated=%v deadlocks=%d", proto, v, res.Truncated, res.Deadlocks)
				}
				got := res.Violations > 0
				if got != wantViolation {
					t.Errorf("%v/dekker-%v: violation=%v, want %v", proto, v, got, wantViolation)
				}
			}
			check(programs.DekkerNoFence, true)
			check(programs.DekkerMfence, false)
			check(programs.DekkerLmfence, false)
			check(programs.DekkerLmfenceMirrored, false)
		})
	}
}

func TestCatalogUnderAllProtocols(t *testing.T) {
	for _, proto := range []arch.Protocol{arch.MSI, arch.MOESI} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			for _, ct := range Catalog() {
				progs := ct.Build()
				cfg := arch.DefaultConfig()
				cfg.Procs = len(progs)
				cfg.MemWords = 16
				cfg.StoreBufferDepth = 4
				cfg.Protocol = proto
				build := func() *tso.Machine { return tso.NewMachine(cfg, progs...) }
				res := Explore(build, Options{})
				if res.Truncated || res.Deadlocks > 0 {
					t.Fatalf("%s: truncated=%v deadlocks=%d", ct.Name, res.Truncated, res.Deadlocks)
				}
				reached := res.CountOutcomes(func(o Outcome) bool { return ct.Relaxed(o) }) > 0
				if reached != ct.Allowed(arch.TSO) {
					t.Errorf("%s under %v: relaxed reachable=%v, want %v",
						ct.Name, proto, reached, ct.Allowed(arch.TSO))
				}
			}
		})
	}
}

// The multi-link variant (arch.Config.Links > 1) must preserve both the
// Dekker theorems and the publication ordering of two back-to-back
// guarded stores: if the secondary observes the second guarded location,
// the first must be visible too (stores complete in FIFO order, and
// breaking either link flushes the whole buffer).
func TestMultiLinkModelChecked(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	cfg.Links = 2

	// Dekker with l-mfence still mutually exclusive at link capacity 2.
	p0, p1 := programs.DekkerPair(programs.DekkerLmfence)
	res := Explore(func() *tso.Machine { return tso.NewMachine(cfg, p0, p1) },
		Options{Properties: []Property{MutualExclusion}})
	if res.Violations != 0 || res.Deadlocks != 0 || res.Truncated {
		t.Fatalf("2-link Dekker: violations=%d deadlocks=%d truncated=%v",
			res.Violations, res.Deadlocks, res.Truncated)
	}

	// Two guarded publications, MP-shaped reader.
	pub := tso.NewBuilder("pub").
		Lmfence(programs.AddrX, 1, programs.RegScratch).
		Lmfence(programs.AddrY, 1, programs.RegScratch).
		Halt().Build()
	rd := tso.NewBuilder("rd").
		Load(1, programs.AddrY).
		Load(2, programs.AddrX).
		Halt().Build()
	res = Explore(func() *tso.Machine { return tso.NewMachine(cfg, pub, rd) }, Options{})
	if res.Deadlocks != 0 || res.Truncated {
		t.Fatalf("2-link MP: deadlocks=%d truncated=%v", res.Deadlocks, res.Truncated)
	}
	bad := res.CountOutcomes(func(o Outcome) bool {
		s := procSection(string(o), 1)
		return strings.Contains(s, "r1=1") && strings.Contains(s, "r2=0")
	})
	if bad != 0 {
		for _, o := range res.SortedOutcomes() {
			t.Logf("outcome: %s", o)
		}
		t.Errorf("2-link publication order violated in %d outcomes", bad)
	}
	// Sanity: the reader can observe both states.
	if !res.HasOutcome(1, "r1=1", "r2=1") || !res.HasOutcome(1, "r1=0") {
		t.Error("expected outcomes missing")
	}
}
