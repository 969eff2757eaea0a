package litmus

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/programs"
)

// drainSlabPool empties the process-wide trace-slab free list.
func drainSlabPool() {
	slabMu.Lock()
	defer slabMu.Unlock()
	clear(traceFree)
	traceFree = traceFree[:0]
}

// pooledSlabs is how many slabs the free list holds.
func pooledSlabs() int {
	slabMu.Lock()
	defer slabMu.Unlock()
	return len(traceFree)
}

// TestTraceSlabsOutliveNoTrace: a run that stops at its first violation
// hands its slabs back, and a later run that carves its own trace links
// from them leaves the first run's ViolationTrace intact: it still
// replays, and renders, to a violating state.
func TestTraceSlabsOutliveNoTrace(t *testing.T) {
	drainSlabPool()
	defer drainSlabPool()
	me := []Property{MutualExclusion}
	d0, d1 := programs.DekkerPair(programs.DekkerNoFence)
	build := machineFor(d0, d1)
	a := Explore(build, Options{Workers: 1, Properties: me, StopOnViolation: true})
	if a.Violations == 0 || len(a.ViolationTrace) == 0 {
		t.Fatalf("run A found no violation to keep: %+v", a)
	}
	kept := slices.Clone(a.ViolationTrace)
	returned := pooledSlabs()
	if returned == 0 {
		t.Fatal("run A returned no slab to the free list")
	}

	// Run B draws A's slabs and fills them with links of its own.
	b := Explore(build, Options{Workers: 1, Properties: me})
	if b.Violations == 0 {
		t.Fatalf("run B found no violation: %+v", b)
	}
	if !reflect.DeepEqual(a.ViolationTrace, kept) {
		t.Fatalf("run A's trace changed under run B:\nnow  %v\nwas  %v", a.ViolationTrace, kept)
	}
	if err := MutualExclusion(Replay(build, a.ViolationTrace)); err == nil {
		t.Error("run A's trace no longer replays to a violating state")
	}
	if FormatTrace(build, a.ViolationTrace) == "" {
		t.Error("run A's trace renders empty")
	}
}

// TestTraceSlabPoolIsBounded: however many slabs a run's workers
// retire, the free list keeps at most maxPooledSlabs, each of them
// empty and cleared.
func TestTraceSlabPoolIsBounded(t *testing.T) {
	drainSlabPool()
	defer drainSlabPool()
	full := func() [][]traceNode {
		var out [][]traceNode
		for range maxPooledSlabs {
			s := make([]traceNode, slabNodes)
			s[0].parent = &s[1]
			out = append(out, s)
		}
		return out
	}
	for range 2 {
		e := &engine{workers: []*worker{{slabs: full()}, {slabs: full()}}}
		e.retireSlabs()
		if got := pooledSlabs(); got != maxPooledSlabs {
			t.Errorf("%d slabs pooled, want %d", got, maxPooledSlabs)
		}
	}
	slabMu.Lock()
	defer slabMu.Unlock()
	for _, s := range traceFree {
		if len(s) != 0 || cap(s) != slabNodes || s[:1][0].parent != nil {
			t.Fatalf("a pooled slab has len %d, cap %d or a stale link", len(s), cap(s))
		}
	}
}

var slabSink []traceNode

// TestTraceSlabFillsItsSizeClass: a fresh slab costs its links and the
// allocator's 8-byte header, no size-class rounding on top, so carving
// links from slabs allocates no more bytes than one object per link did.
func TestTraceSlabFillsItsSizeClass(t *testing.T) {
	drainSlabPool()
	const n = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		slabSink = drawSlab()
	}
	runtime.ReadMemStats(&after)
	want := uint64(slabNodes*unsafe.Sizeof(traceNode{}) + 8)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > want {
		t.Errorf("a slab of %d links allocates %d B, want at most %d", slabNodes, per, want)
	}
}
