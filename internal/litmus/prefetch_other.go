//go:build !amd64

package litmus

// prefetch and prefetchW are cache hints on amd64 (prefetch_amd64.s)
// and nothing elsewhere.
func prefetch(addr uintptr)  {}
func prefetchW(addr uintptr) {}
