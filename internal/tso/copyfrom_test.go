package tso_test

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// TestCopyFromMatchesClone drives two Dekker machines through the same
// interleaving — one advanced directly, one repeatedly refreshed via
// CopyFrom into a recycled machine — and checks the fingerprints stay
// identical at every step. This exercises the guard-handler rewiring
// claim: a recycled machine's handlers must keep flushing *its own*
// store buffer when a remote access breaks a link.
func TestCopyFromMatchesClone(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	p0, p1 := programs.DekkerPair(programs.DekkerLmfence)
	build := func() *tso.Machine { return tso.NewMachine(cfg, p0, p1) }

	src := build()
	recycled := build() // gets overwritten by CopyFrom below

	step := func(m *tso.Machine, i int) {
		pid := arch.ProcID(i % 2)
		if m.CanExec(pid) {
			m.ExecStep(pid)
		} else if m.CanDrain(pid) {
			m.DrainStep(pid)
		}
	}

	var fpA, fpB []byte
	for i := 0; i < 200; i++ {
		step(src, i)
		recycled.CopyFrom(src)
		fpA = src.Fingerprint(fpA[:0])
		fpB = recycled.Fingerprint(fpB[:0])
		if !bytes.Equal(fpA, fpB) {
			t.Fatalf("step %d: CopyFrom fingerprint diverged", i)
		}
		// Advance the copy independently; it must not disturb src
		// (shared state would) and its guard handlers must fire on its
		// own processors without panicking.
		for j := 0; j < 3; j++ {
			step(recycled, i+j)
		}
		fpB = src.Fingerprint(fpB[:0])
		if !bytes.Equal(fpA, fpB) {
			t.Fatalf("step %d: mutating the copy changed the source", i)
		}
	}
}

// TestCopyFromDoesNotAllocate: the model checker recycles a machine per
// explored state, between states whose caches, store buffers, links and
// state-key caches (one holding digests, one a Collapser's ids) all
// differ, so the copy must reuse every allocation of the target.
func TestCopyFromDoesNotAllocate(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	p0, p1 := programs.DekkerPair(programs.DekkerLmfence)
	early, late := tso.NewMachine(cfg, p0, p1), tso.NewMachine(cfg, p0, p1)
	for i := 0; i < 12; i++ { // late: lines in both caches, a pending store, an armed link
		if pid := arch.ProcID(i % 2); late.CanExec(pid) {
			late.ExecStep(pid)
		}
	}
	var scratch []byte
	early.KeyPair(&scratch)
	tso.NewCollapser().Collapse(late, nil, &scratch)
	dst := late.Clone()
	if n := testing.AllocsPerRun(100, func() {
		dst.CopyFrom(early)
		dst.CopyFrom(late)
	}); n != 0 {
		t.Errorf("Machine.CopyFrom allocates %v times per pair of copies, want 0", n)
	}
}

// TestCopyFromShapeMismatch checks the shape guard: recycling across
// differently-configured machines must fail loudly, not corrupt state.
func TestCopyFromShapeMismatch(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	a := tso.NewMachine(cfg, programs.LmfenceTrace())
	cfg3 := cfg
	cfg3.Procs = 3
	b := tso.NewMachine(cfg3, programs.LmfenceTrace())
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom across machine shapes did not panic")
		}
	}()
	a.CopyFrom(b)
}
