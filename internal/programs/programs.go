// Package programs assembles the canonical protocol programs from the
// paper for the simulated machine: the Dekker-duality idiom in its
// unfenced, mfence, and l-mfence forms (Figures 1 and 3(a)), classic
// store-buffering and message-passing litmus tests, and the round-trip
// microbenchmarks behind the overhead comparison in Section 5.
package programs

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/tso"
)

// Fixed memory layout shared by all protocol programs.
const (
	// AddrL1 and AddrL2 are the two Dekker flags.
	AddrL1 arch.Addr = 0
	AddrL2 arch.Addr = 1
	// AddrCS0 and AddrCS1 are touched inside the critical section ("a few
	// memory locations", per the paper's serial experiment).
	AddrCS0 arch.Addr = 2
	AddrCS1 arch.Addr = 3
	// AddrX and AddrY are generic litmus-test locations.
	AddrX arch.Addr = 4
	AddrY arch.Addr = 5
)

// Registers with fixed roles in the generated programs.
const (
	RegScratch tso.Reg = 7 // LE destination / temporaries
	RegFlag    tso.Reg = 6 // set to 1 when the thread entered its CS
	RegObs     tso.Reg = 0 // observed value of the other thread's flag
	RegCounter tso.Reg = 5 // loop counter
)

// DekkerVariant selects the fence discipline of a Dekker-protocol thread
// pair.
type DekkerVariant int

const (
	// DekkerNoFence is Figure 1 verbatim: no fences. Broken on TSO; the
	// model checker finds the mutual-exclusion violation.
	DekkerNoFence DekkerVariant = iota
	// DekkerMfence inserts a full mfence between the flag write and the
	// remote read on both threads (the traditional fix).
	DekkerMfence
	// DekkerLmfence is Figure 3(a): the primary thread uses
	// l-mfence(&L1, 1); the secondary keeps an ordinary mfence.
	DekkerLmfence
	// DekkerLmfenceMirrored has both threads use l-mfence on their own
	// flag (the paper notes the protocol still provides mutual exclusion).
	DekkerLmfenceMirrored
)

func (v DekkerVariant) String() string {
	switch v {
	case DekkerNoFence:
		return "nofence"
	case DekkerMfence:
		return "mfence"
	case DekkerLmfence:
		return "lmfence"
	case DekkerLmfenceMirrored:
		return "lmfence-mirrored"
	default:
		return fmt.Sprintf("DekkerVariant(%d)", int(v))
	}
}

// dekkerThread builds one single-shot Dekker attempt. own/other are the
// thread's flag and the peer's flag; fence selects what sits between the
// flag write and the remote read.
func dekkerThread(name string, own, other arch.Addr, fence DekkerVariant, primary bool) *tso.Program {
	b := tso.NewBuilder(name)
	switch {
	case fence == DekkerLmfence && primary,
		fence == DekkerLmfenceMirrored:
		b.Lmfence(own, 1, RegScratch) // write own flag under the link
	case fence == DekkerMfence || fence == DekkerLmfence:
		b.StoreI(own, 1).Mfence()
	default: // DekkerNoFence
		b.StoreI(own, 1)
	}
	b.Load(RegObs, other).
		Bne(RegObs, 0, "skip").
		CSEnter().
		LoadI(RegFlag, 1).
		StoreI(AddrCS0, 1).
		Load(RegScratch, AddrCS1).
		CSExit().
		Label("skip").
		StoreI(own, 0).
		Halt()
	return b.Build()
}

// DekkerPair returns the two single-shot Dekker threads for a variant.
// Thread 0 is the primary. Intended for the model checker: mutual
// exclusion holds iff no interleaving sets CSViolation.
func DekkerPair(v DekkerVariant) (*tso.Program, *tso.Program) {
	t0 := dekkerThread("dekker-primary-"+v.String(), AddrL1, AddrL2, v, true)
	t1 := dekkerThread("dekker-secondary-"+v.String(), AddrL2, AddrL1, v, false)
	return t0, t1
}

// DekkerLoop builds the primary thread's Dekker acquire/release loop for
// the serial-overhead experiment (§1: "a thread running alone and
// executing the Dekker protocol ... runs 4-7 times slower" with mfence).
// The loop runs iters times; each iteration writes the flag under the
// selected fence discipline, reads the peer flag, touches csWork memory
// locations in the critical section, and releases.
func DekkerLoop(v DekkerVariant, iters int, csWork int) *tso.Program {
	b := tso.NewBuilder("dekker-loop-" + v.String())
	b.LoadI(RegCounter, arch.Word(iters))
	b.Label("top")
	switch v {
	case DekkerNoFence:
		b.StoreI(AddrL1, 1)
	case DekkerMfence:
		b.StoreI(AddrL1, 1).Mfence()
	case DekkerLmfence, DekkerLmfenceMirrored:
		b.Lmfence(AddrL1, 1, RegScratch)
	}
	b.Load(RegObs, AddrL2)
	// The loop assumes no contention (running alone); proceed into the CS
	// regardless, as the measured fast path does.
	for i := 0; i < csWork; i++ {
		b.StoreI(AddrCS0+arch.Addr(i%2), arch.Word(i))
	}
	b.StoreI(AddrL1, 0)
	b.AddI(RegCounter, RegCounter, -1)
	b.Bne(RegCounter, 0, "top")
	b.Halt()
	return b.Build()
}

// LoadLoadPair exercises ordering principle 1 (reads not reordered with
// reads) together with principle 3 via a writer that publishes two values
// in order; the reader must never see the second value without the first.
func LoadLoadPair() (*tso.Program, *tso.Program) {
	p0 := tso.NewBuilder("ll-writer").StoreI(AddrX, 1).StoreI(AddrX, 2).StoreI(AddrY, 1).Halt().Build()
	p1 := tso.NewBuilder("ll-reader").Load(1, AddrY).Load(2, AddrX).Halt().Build()
	return p0, p1
}

// LmfenceTrace is the standalone Fig. 3(b) sequence, for trace printing.
func LmfenceTrace() *tso.Program {
	return tso.NewBuilder("lmfence-trace").
		Lmfence(AddrL1, 1, RegScratch).
		Load(RegObs, AddrL2).
		StoreI(AddrL1, 0).
		Halt().
		Build()
}

// RoundTripPrimary builds the primary side of the overhead experiment: it
// repeatedly publishes to the guarded location with l-mfence and spins on
// its own work, while a secondary (see RoundTripSecondary) reads the
// location, each read breaking the link.
func RoundTripPrimary(iters int) *tso.Program {
	b := tso.NewBuilder("rt-primary")
	b.LoadI(RegCounter, arch.Word(iters))
	b.Label("top")
	b.Lmfence(AddrL1, 1, RegScratch)
	b.StoreI(AddrL1, 0)
	b.AddI(RegCounter, RegCounter, -1)
	b.Bne(RegCounter, 0, "top")
	b.Halt()
	return b.Build()
}

// RoundTripSecondary reads the guarded location iters times.
func RoundTripSecondary(iters int) *tso.Program {
	b := tso.NewBuilder("rt-secondary")
	b.LoadI(RegCounter, arch.Word(iters))
	b.Label("top")
	b.Load(RegObs, AddrL1)
	b.AddI(RegCounter, RegCounter, -1)
	b.Bne(RegCounter, 0, "top")
	b.Halt()
	return b.Build()
}
