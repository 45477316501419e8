package heap

import (
	"testing"

	"giantsan/internal/core"
	"giantsan/internal/vmem"
)

// TestWarmMallocFreeAllocatesNothing: once an allocator has held a
// session's chunks, a Malloc/Free cycle that overflows the quarantine —
// evictions, eviction sweeps, free-list pushes and pops — allocates no Go
// memory: chunk records come from the slab, free lists are intrusive, and
// the quarantine and sweep buffers are reused.
func TestWarmMallocFreeAllocatesNothing(t *testing.T) {
	sp := vmem.NewSpace(1 << 20)
	a := New(sp, core.New(sp), Config{QuarantineBytes: 1 << 10})
	ptrs := make([]vmem.Addr, 48)
	cycle := func() {
		for i := range ptrs {
			p, err := a.Malloc(uint64(8 + (i%6)*24))
			if err != nil {
				t.Fatal(err)
			}
			ptrs[i] = p
		}
		for _, p := range ptrs {
			if err := a.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm: slab, registry, free lists, quarantine and templates
	before := a.Stats()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("%v allocations per warm Malloc/Free cycle, want 0", n)
	}
	st := a.Stats()
	if st.QuarantinePops == before.QuarantinePops || st.FreeListReuses == before.FreeListReuses {
		t.Fatalf("the cycle did not evict and recycle: %+v", st)
	}
}

// TestResetKeepsChunkRecords: a session after Reset reuses the previous
// session's chunk records and quarantine array instead of allocating new
// ones.
func TestResetKeepsChunkRecords(t *testing.T) {
	sp := vmem.NewSpace(1 << 20)
	a := New(sp, core.New(sp), Config{QuarantineBytes: 1 << 10})
	session := func() {
		a.Reset()
		for i := 0; i < 300; i++ {
			p, err := a.Malloc(uint64(1 + i%200))
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				a.Free(p)
			}
		}
	}
	session()
	if n := testing.AllocsPerRun(10, session); n != 0 {
		t.Errorf("%v allocations per session after Reset, want 0", n)
	}
}
