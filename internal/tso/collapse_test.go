package tso

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arch"
)

// internKeys returns n distinct byte strings of the lengths component
// encodings take (a few bytes for an empty store buffer up to a memory
// image), each drawn twice over in a shuffled order so that about half
// of all intern calls are hits.
func internKeys(seed int64, n int) (distinct, stream [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	for len(distinct) < n {
		k := make([]byte, 1+rng.Intn(72))
		rng.Read(k)
		if !seen[string(k)] {
			seen[string(k)] = true
			distinct = append(distinct, k)
		}
	}
	stream = append(append(stream, distinct...), distinct...)
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return distinct, stream
}

// TestInternTableModel holds the flat intern table to a map: ids are
// dense in first-seen order through several doublings of the slot array,
// the id is an exact identity even when every key is forced onto one
// hash tag (so only bytes.Equal tells keys apart), a snapshot restored
// into a fresh Collapser reproduces every id, and restoring into a warm
// one panics.
func TestInternTableModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		hash func([]byte) uint64
		n    int
	}{
		{"hashed", internHash, 5000},
		{"one tag", func([]byte) uint64 { return 7 << 32 }, 600},
		{"one probe start", func(b []byte) uint64 { return uint64(len(b)) << 56 }, 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := internHash
			t.Cleanup(func() { internHash = orig })
			internHash = tc.hash

			c := NewCollapser()
			_, stream := internKeys(11, tc.n)
			model := make(map[string]uint32)
			var keyBytes int64
			for i, k := range stream {
				want, seen := model[string(k)]
				if !seen {
					want = uint32(len(model))
					model[string(k)] = want
					keyBytes += int64(len(k))
				}
				// The caller reuses its buffer; the table must have copied.
				buf := bytes.Clone(k)
				got := c.mem.intern(buf)
				clear(buf)
				if got != want {
					t.Fatalf("intern #%d: id %d, model %d", i, got, want)
				}
			}
			if slots := len(c.mem.cur.Load().slots); slots < 8*internMinSlots {
				t.Fatalf("%d keys left the table at %d slots: growth was not exercised", tc.n, slots)
			}
			entries, tblBytes := c.Stats()
			if entries != uint64(tc.n) {
				t.Fatalf("Stats reports %d entries, want %d", entries, tc.n)
			}
			// At most half the slots are used and every key has a header.
			if floor := keyBytes + int64(tc.n)*(2*8+24); tblBytes < floor {
				t.Fatalf("Stats reports %d bytes, below the %d the slots, headers and keys must take", tblBytes, floor)
			}

			snap := c.TableSnapshot()
			if len(snap[3]) != tc.n || len(snap[0])+len(snap[1])+len(snap[2]) != 0 {
				t.Fatalf("snapshot sizes %d/%d/%d/%d, want 0/0/0/%d", len(snap[0]), len(snap[1]), len(snap[2]), len(snap[3]), tc.n)
			}
			for k, id := range model {
				if !bytes.Equal(snap[3][id], []byte(k)) {
					t.Fatalf("snapshot[%d] is not the key the table gave that id", id)
				}
			}
			fresh := NewCollapser()
			fresh.RestoreTables(snap)
			for k, id := range model {
				if got := fresh.mem.intern([]byte(k)); got != id {
					t.Fatalf("restored table gives id %d to a key the original gave %d", got, id)
				}
			}
			if e, _ := fresh.Stats(); e != uint64(tc.n) {
				t.Fatalf("restored table holds %d entries after re-interning its own keys, want %d", e, tc.n)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("RestoreTables on a warm Collapser did not panic")
				}
			}()
			fresh.RestoreTables(snap)
		})
	}
}

// TestInternConcurrent interns overlapping key sets from several
// goroutines at once: every key must get exactly one id however many
// goroutines raced to insert it, and the ids must be exactly 0..n-1.
// Run it with -race -count=10.
func TestInternConcurrent(t *testing.T) {
	const goroutines, n = 4, 3000
	distinct, _ := internKeys(13, n)
	var tbl internTable
	ids := make([][]uint32, goroutines) // ids[g][i]: what g got for distinct[i], or ^0
	var wg sync.WaitGroup
	for g := range ids {
		ids[g] = make([]uint32, n)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine covers three quarters of the keys, twice, in
			// its own order: every key is contended and most calls hit.
			rng := rand.New(rand.NewSource(int64(g)))
			for i := range ids[g] {
				ids[g][i] = ^uint32(0)
			}
			for pass := 0; pass < 2; pass++ {
				for _, i := range rng.Perm(n) {
					if i%goroutines == g {
						continue
					}
					id := tbl.intern(distinct[i])
					if prev := ids[g][i]; prev != ^uint32(0) && prev != id {
						t.Errorf("goroutine %d: key %d interned as %d, then as %d", g, i, prev, id)
					}
					ids[g][i] = id
				}
			}
		}(g)
	}
	wg.Wait()

	owner := make([]int, n) // id -> key index + 1
	for i := 0; i < n; i++ {
		id := ^uint32(0)
		for g := range ids {
			switch {
			case ids[g][i] == ^uint32(0):
			case id == ^uint32(0):
				id = ids[g][i]
			case id != ids[g][i]:
				t.Fatalf("key %d has ids %d and %d", i, id, ids[g][i])
			}
		}
		if int(id) >= n {
			t.Fatalf("key %d has id %d, outside 0..%d", i, id, n-1)
		}
		if owner[id] != 0 {
			t.Fatalf("keys %d and %d share id %d", owner[id]-1, i, id)
		}
		owner[id] = i + 1
	}
	if e, _ := tbl.stats(); e != n {
		t.Fatalf("table holds %d entries, want %d", e, n)
	}
}

// collapseFixture is a small two-processor machine a few steps into a
// run, with pending stores and resident cache lines.
func collapseFixture() *Machine {
	prog := func(addr int) *Program {
		return NewBuilder("w").StoreI(arch.Addr(addr), 1).Load(0, arch.Addr(1-addr)).Halt().Build()
	}
	m := NewMachine(cfg(2), prog(0), prog(1))
	m.ExecStep(0)
	m.ExecStep(1)
	m.ExecStep(0)
	return m
}

// TestCollapseLookupDoesNotAllocate: once a state's components are
// interned, collapsing it again allocates nothing, whether every
// component is looked up again (the cache invalidated: all hits in warm
// tables) or the tuple comes straight from the machine's cached ids.
func TestCollapseLookupDoesNotAllocate(t *testing.T) {
	m := collapseFixture()
	c := NewCollapser()
	var scratch []byte
	key := c.Collapse(m, nil, &scratch)
	want := bytes.Clone(key)
	if len(key) != CollapsedWidth(len(m.Procs)) {
		t.Fatalf("key is %d bytes, want %d", len(key), CollapsedWidth(len(m.Procs)))
	}
	if allocs := testing.AllocsPerRun(200, func() {
		m.Invalidate()
		key = c.Collapse(m, key[:0], &scratch)
	}); allocs != 0 {
		t.Errorf("Collapse of an interned state allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { key = c.Collapse(m, key[:0], &scratch) }); allocs != 0 {
		t.Errorf("Collapse from the machine's cached ids allocates %.1f times per call, want 0", allocs)
	}
	if !bytes.Equal(key, want) {
		t.Errorf("Collapse of the same state gave %x, then %x", want, key)
	}
}

var internSink uint32

// BenchmarkIntern times the lookup the collapse path is made of: 4,096
// interned 40-byte keys looked up in a shuffled order, one call in 1,024
// a new key, from one goroutine and from two sharing the table.
func BenchmarkIntern(b *testing.B) {
	const resident, missEvery = 4096, 1024
	rng := rand.New(rand.NewSource(17))
	keys := make([][]byte, resident)
	for i := range keys {
		keys[i] = make([]byte, 40)
		rng.Read(keys[i])
	}
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			var tbl internTable
			for _, k := range keys {
				tbl.intern(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					fresh := make([]byte, 40)
					sum := uint32(0)
					for i := w; i < b.N; i += g {
						k := keys[(i*2654435761)%resident]
						if i%missEvery == 0 {
							fresh[0], fresh[1], fresh[2], fresh[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
							k = fresh
						}
						sum += tbl.intern(k)
					}
					if w == 0 {
						internSink += sum
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
