// Package arch defines the shared vocabulary of the multiprocessor
// simulator used throughout this repository: memory addresses and values,
// processor identifiers, and the cycle-cost model that timing simulations
// charge against.
//
// The simulated architecture follows Section 2 of "Location-Based Memory
// Fences" (Ladan-Mozes, Lee, Vyukov; SPAA 2011): an out-of-order machine
// that commits instructions in order, implements the Total-Store-Order /
// Processor-Order memory model with per-processor FIFO store buffers and
// store-buffer forwarding, and keeps private caches coherent with a
// snooping MESI protocol.
package arch

import "fmt"

// Addr is a simulated memory address. The simulator models a small, flat
// word-addressed memory; cache lines hold exactly one word so that the
// coherence-visible granularity coincides with the location granularity
// the paper's l-mfence guards.
type Addr uint32

// Word is the value stored at a simulated address.
type Word int64

// ProcID identifies a simulated processor. Valid IDs are dense and start
// at zero; NoProc marks "no processor" in ownership fields.
type ProcID int

// NoProc is the sentinel ProcID used where a field may name no processor,
// e.g. the owner of an uncached line.
const NoProc ProcID = -1

func (p ProcID) String() string {
	if p == NoProc {
		return "P<none>"
	}
	return fmt.Sprintf("P%d", int(p))
}

// CostModel carries the cycle prices the timing simulator charges for
// micro-architectural events. The defaults mirror the system the paper
// evaluated on (AMD Opteron, 4x quad-core, 2 GHz): a signal round trip of
// roughly 10,000 cycles and an LE/ST round trip of roughly 150 cycles
// (akin to an L1 miss that hits in a neighbouring cache).
type CostModel struct {
	// RegOp is the cost of a register-only instruction (moves between
	// registers, ALU operations, branches with correct prediction).
	RegOp int64

	// L1Hit is the cost of a load or store hitting the local cache (or the
	// store buffer via forwarding).
	L1Hit int64

	// CacheTransfer is the cost of a cache-to-cache transfer: the bus
	// round trip needed when a load or store misses locally but another
	// processor's cache holds the line.
	CacheTransfer int64

	// MemAccess is the cost of fetching a line from memory when no cache
	// holds it.
	MemAccess int64

	// StoreBufferDrainPerEntry is the per-entry cost of flushing the store
	// buffer; an mfence stalls for occupancy * this.
	StoreBufferDrainPerEntry int64

	// MfenceBase is the fixed overhead of executing a memory fence, paid
	// even when the store buffer is empty.
	MfenceBase int64

	// LELinkSetup is the extra cost of arming the LE/ST link (setting
	// LEBit/LEAddr and the load-exclusive), beyond the underlying cache
	// access. The paper argues this is negligible when running alone.
	LELinkSetup int64

	// SignalRoundTrip is the cost, charged to the secondary, of one
	// software-prototype signal round trip: send the signal, the primary
	// crosses kernel/user mode four times, handles it, and acknowledges.
	SignalRoundTrip int64

	// LESTRoundTrip is the cost, charged to the secondary, of one LE/ST
	// hardware round trip: coherence messages between two cache
	// controllers plus the primary's store-buffer flush.
	LESTRoundTrip int64

	// BranchMispredict is the penalty for a mispredicted branch (the
	// l-mfence translation's BNQ is normally predicted correctly).
	BranchMispredict int64
}

// DefaultCostModel returns the cost model calibrated against the numbers
// the paper reports for its AMD Opteron testbed.
func DefaultCostModel() CostModel {
	return CostModel{
		RegOp:                    1,
		L1Hit:                    3,
		CacheTransfer:            40,
		MemAccess:                150,
		StoreBufferDrainPerEntry: 10,
		MfenceBase:               60,
		LELinkSetup:              2,
		SignalRoundTrip:          10000,
		LESTRoundTrip:            150,
		BranchMispredict:         14,
	}
}

// Protocol selects the cache-coherence protocol flavour. The paper's
// LE/ST mechanism assumes MESI but "can be adapted to other variants
// such as MSI and MOESI" (Section 2); the simulator implements all
// three so that adaptation is testable.
type Protocol uint8

const (
	// MESI is the four-state protocol the paper assumes.
	MESI Protocol = iota
	// MSI drops the Exclusive state: clean lines are always Shared, and
	// the LE instruction acquires Modified directly.
	MSI
	// MOESI adds the Owned state: a Modified line downgrades to Owned on
	// a remote read, supplying data without a memory writeback.
	MOESI
)

func (p Protocol) String() string {
	switch p {
	case MESI:
		return "MESI"
	case MSI:
		return "MSI"
	case MOESI:
		return "MOESI"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// MemModel selects the memory consistency model a machine is explored
// under: which drain transitions the model checker's transition system
// exposes. The machine state is identical across models; only the
// enabled-action relation differs. Only the model checker reads it
// (from the root machine's Config.Model, once per exploration); the
// cycle simulator's store buffers drain FIFO whatever it says.
type MemModel uint8

const (
	// TSO is Total Store Order, the paper's model: one FIFO store
	// buffer per processor, so stores complete in program order and
	// the only visible relaxation is a load passing an older store.
	TSO MemModel = iota
	// PSO is Partial Store Order: per-address store buffers, so
	// pending stores to *different* addresses drain in any order while
	// same-address stores stay FIFO. Every TSO execution is a PSO
	// execution (FIFO drain order is one valid per-address order).
	PSO
	// SC is sequential consistency, the reference every relaxation is
	// judged against: a store reaches the coherent cache as it commits.
	// It has no DSL or flag spelling (ParseMemModel refuses it); only
	// Go callers select it.
	SC
)

func (m MemModel) String() string {
	switch m {
	case TSO:
		return "tso"
	case PSO:
		return "pso"
	case SC:
		return "sc"
	default:
		return fmt.Sprintf("MemModel(%d)", uint8(m))
	}
}

// ParseMemModel parses a memory-model name as spelled in the DSL's
// config block and the CLIs' -model flag. The empty string means the
// default (TSO).
func ParseMemModel(s string) (MemModel, error) {
	switch s {
	case "", "tso", "TSO":
		return TSO, nil
	case "pso", "PSO":
		return PSO, nil
	default:
		return TSO, fmt.Errorf("arch: unknown memory model %q (want tso or pso)", s)
	}
}

// Config describes a simulated machine.
type Config struct {
	// Procs is the number of processors.
	Procs int

	// Protocol is the coherence protocol flavour (default MESI).
	Protocol Protocol

	// Model is the memory model the model checker explores the machine
	// under (default TSO); see MemModel.
	Model MemModel

	// Links is the number of LE/ST link register pairs per processor.
	// The paper's proposal has exactly one (values <= 0 mean 1); larger
	// values explore the multi-outstanding-fence design space the paper
	// contrasts with in its related work, avoiding the single-link
	// double-flush at the cost of heavier hardware.
	Links int

	// MemWords is the size of the flat simulated memory in words.
	MemWords int

	// StoreBufferDepth is the capacity of each processor's store buffer.
	// A store issued while the buffer is full forces the oldest entry to
	// drain first (as real hardware does).
	StoreBufferDepth int

	// Cost is the cycle-cost model used by timing runs. Exhaustive
	// model-checking runs ignore it.
	Cost CostModel
}

// DefaultConfig returns a machine comparable to one socket of the paper's
// testbed: 4 processors, a small memory, and 8-entry store buffers.
func DefaultConfig() Config {
	return Config{
		Procs:            4,
		MemWords:         64,
		StoreBufferDepth: 8,
		Cost:             DefaultCostModel(),
	}
}

// MaxMemWords bounds Config.MemWords. State fingerprints encode an
// address in two bytes (cache lines, guard lists, link registers), so in
// a larger memory the addresses a and a+65536 would alias and the model
// checker would merge distinct states silently. It also bounds each
// cache's dense line array (mesi) at 1 MB.
const MaxMemWords = 1 << 16

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("arch: config needs at least one processor, got %d", c.Procs)
	}
	if c.MemWords <= 0 {
		return fmt.Errorf("arch: config needs memory, got %d words", c.MemWords)
	}
	if c.MemWords > MaxMemWords {
		return fmt.Errorf("arch: %d memory words exceed %d, the range of the two-byte addresses in state fingerprints", c.MemWords, MaxMemWords)
	}
	if c.StoreBufferDepth <= 0 {
		return fmt.Errorf("arch: store buffer depth must be positive, got %d", c.StoreBufferDepth)
	}
	if c.Model > SC {
		return fmt.Errorf("arch: unknown memory model %d", uint8(c.Model))
	}
	return nil
}
