package litmus

// prefetch hints the cache line holding addr into every cache level
// (PREFETCHT0). It never faults, whatever addr is.
func prefetch(addr uintptr)

// prefetchW hints the cache line holding addr into this core's cache
// in the exclusive state (PREFETCHW), ahead of a write to it. It never
// faults, whatever addr is.
func prefetchW(addr uintptr)
