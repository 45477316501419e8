package heap

import (
	"sync"
	"testing"
	"testing/quick"

	"giantsan/internal/oracle"
	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// recPoisoner is a byte-granular recording poisoner: the simplest possible
// correct encoding, used to validate allocator behaviour independently of
// any real sanitizer encoding. The kinds tally is mutex-guarded because
// the concurrency tests poison from many goroutines (the state bytes are
// written per-chunk, i.e. disjointly, like real shadow memory).
type recPoisoner struct {
	base  vmem.Addr
	state []byte // 0 unknown, 1 addressable, 2 poisoned
	mu    sync.Mutex
	kinds map[san.PoisonKind]int
}

func newRecPoisoner(sp *vmem.Space) *recPoisoner {
	return &recPoisoner{base: sp.Base(), state: make([]byte, sp.Size()), kinds: map[san.PoisonKind]int{}}
}

func (r *recPoisoner) MarkAllocated(base vmem.Addr, size uint64) {
	for i := uint64(0); i < size; i++ {
		r.state[base-r.base+vmem.Addr(i)] = 1
	}
}

func (r *recPoisoner) Poison(base vmem.Addr, size uint64, kind san.PoisonKind) {
	r.mu.Lock()
	r.kinds[kind]++
	r.mu.Unlock()
	for i := uint64(0); i < size; i++ {
		r.state[base-r.base+vmem.Addr(i)] = 2
	}
}

func (r *recPoisoner) addressable(a vmem.Addr, n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if r.state[a-r.base+vmem.Addr(i)] != 1 {
			return false
		}
	}
	return true
}

func newHeap(t *testing.T, cfg Config) (*Allocator, *recPoisoner, *oracle.Oracle) {
	t.Helper()
	sp := vmem.NewSpace(1 << 20)
	o := oracle.New(sp)
	cfg.Oracle = o
	p := newRecPoisoner(sp)
	return New(sp, p, cfg), p, o
}

func TestMallocAlignmentAndPoisoning(t *testing.T) {
	a, p, o := newHeap(t, Config{})
	for _, size := range []uint64{1, 7, 8, 13, 64, 68, 1000} {
		ptr, err := a.Malloc(size)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", size, err)
		}
		if ptr%8 != 0 {
			t.Errorf("Malloc(%d) returned unaligned pointer %#x", size, ptr)
		}
		if !p.addressable(ptr, size) {
			t.Errorf("Malloc(%d): user region not addressable", size)
		}
		if p.addressable(ptr-1, 1) || p.addressable(ptr+vmem.Addr(size), 1) {
			t.Errorf("Malloc(%d): redzones addressable", size)
		}
		if !o.Addressable(ptr, size) {
			t.Errorf("Malloc(%d): oracle disagrees", size)
		}
	}
}

func TestMallocZero(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	p1, err := a.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("malloc(0) twice returned the same pointer")
	}
	if _, ok := a.UserSize(p1); !ok {
		t.Error("malloc(0) allocation not tracked")
	}
}

func TestFreePoisonsAndQuarantines(t *testing.T) {
	a, p, o := newHeap(t, Config{})
	ptr, _ := a.Malloc(100)
	if err := a.Free(ptr); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if p.addressable(ptr, 1) {
		t.Error("freed memory still addressable")
	}
	if o.StateAt(ptr) != oracle.Freed {
		t.Error("oracle not updated on free")
	}
	if a.QuarantineLen() != 1 {
		t.Errorf("QuarantineLen = %d, want 1", a.QuarantineLen())
	}
}

func TestDoubleFree(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	ptr, _ := a.Malloc(32)
	if err := a.Free(ptr); err != nil {
		t.Fatal(err)
	}
	err := a.Free(ptr)
	if err == nil || err.Kind != report.DoubleFree {
		t.Errorf("second free: got %v, want double-free", err)
	}
}

func TestInvalidFree(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	ptr, _ := a.Malloc(32)
	err := a.Free(ptr + 8)
	if err == nil || err.Kind != report.InvalidFree {
		t.Errorf("interior free: got %v, want invalid-free", err)
	}
	err = a.Free(0x1234)
	if err == nil || err.Kind != report.InvalidFree {
		t.Errorf("wild free: got %v, want invalid-free", err)
	}
}

func TestQuarantineDelaysReuse(t *testing.T) {
	// Budget big enough for one chunk but not two: the first freed chunk
	// must not be reused until the second free evicts it.
	a, _, _ := newHeap(t, Config{QuarantineBytes: 200})
	p1, _ := a.Malloc(64) // chunk size = 16+64+16 = 96
	a.Free(p1)
	p2, _ := a.Malloc(64)
	if p1 == p2 {
		t.Fatal("quarantined chunk reused immediately")
	}
	a.Free(p2) // 192 bytes quarantined; next free evicts p1's chunk
	p3, _ := a.Malloc(64)
	if p3 == p1 || p3 == p2 {
		t.Fatal("chunk reused while still quarantined")
	}
	a.Free(p3) // quarLen 288 > 200: evicts p1's chunk to the free list
	p4, _ := a.Malloc(64)
	if p4 != p1 {
		t.Errorf("expected FIFO reuse of first chunk %#x, got %#x", p1, p4)
	}
}

func TestNoQuarantineReusesImmediately(t *testing.T) {
	a, _, _ := newHeap(t, Config{NoQuarantine: true})
	p1, _ := a.Malloc(64)
	a.Free(p1)
	p2, _ := a.Malloc(64)
	if p1 != p2 {
		t.Errorf("NoQuarantine: expected immediate reuse, got %#x then %#x", p1, p2)
	}
}

func TestReuseRestoresAddressability(t *testing.T) {
	a, p, o := newHeap(t, Config{NoQuarantine: true})
	p1, _ := a.Malloc(48)
	a.Free(p1)
	p2, _ := a.Malloc(48)
	if p1 != p2 {
		t.Fatalf("expected reuse")
	}
	if !p.addressable(p2, 48) || !o.Addressable(p2, 48) {
		t.Error("reused chunk not addressable")
	}
}

func TestOutOfMemory(t *testing.T) {
	sp := vmem.NewSpace(1 << 12)
	a := New(sp, newRecPoisoner(sp), Config{})
	_, err := a.Malloc(1 << 13)
	if err == nil {
		t.Fatal("expected out-of-memory error")
	}
}

func TestStatsAccounting(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	p1, _ := a.Malloc(100)
	a.Malloc(50)
	a.Free(p1)
	st := a.Stats()
	if st.Mallocs != 2 || st.Frees != 1 {
		t.Errorf("Mallocs=%d Frees=%d", st.Mallocs, st.Frees)
	}
	if st.BytesAllocated != 150 || st.BytesLive != 50 {
		t.Errorf("BytesAllocated=%d BytesLive=%d", st.BytesAllocated, st.BytesLive)
	}
}

func TestUserSize(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	ptr, _ := a.Malloc(77)
	if sz, ok := a.UserSize(ptr); !ok || sz != 77 {
		t.Errorf("UserSize = %d,%v", sz, ok)
	}
	a.Free(ptr)
	if _, ok := a.UserSize(ptr); ok {
		t.Error("UserSize should fail for freed allocation")
	}
	if _, ok := a.UserSize(ptr + 8); ok {
		t.Error("UserSize should fail for interior pointer")
	}
}

// TestNoOverlapProperty: live allocations (with redzones) never overlap,
// and every pointer is aligned. This is invariant 5 of DESIGN.md.
func TestNoOverlapProperty(t *testing.T) {
	a, p, o := newHeap(t, Config{QuarantineBytes: 4096})
	live := map[vmem.Addr]uint64{}
	f := func(sizes []uint16, freeMask uint8) bool {
		var ptrs []vmem.Addr
		for _, s := range sizes {
			size := uint64(s%512) + 1
			ptr, err := a.Malloc(size)
			if err != nil {
				return true // arena exhausted: acceptable, not a violation
			}
			if ptr%8 != 0 {
				return false
			}
			// New object must not overlap any live object.
			for lp, ls := range live {
				if ptr < lp+vmem.Addr(ls) && lp < ptr+vmem.Addr(size) {
					return false
				}
			}
			if !p.addressable(ptr, size) || !o.Addressable(ptr, size) {
				return false
			}
			live[ptr] = size
			ptrs = append(ptrs, ptr)
		}
		for i, ptr := range ptrs {
			if freeMask&(1<<(uint(i)%8)) != 0 {
				if err := a.Free(ptr); err != nil {
					return false
				}
				delete(live, ptr)
				if p.addressable(ptr, 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRealloc(t *testing.T) {
	a, p, o := newHeap(t, Config{})
	ptr, _ := a.Malloc(64)
	a.space.Store(ptr, 8, 0xfeedface)
	np, rerr, err := a.Realloc(ptr, 128)
	if err != nil || rerr != nil {
		t.Fatalf("Realloc: %v %v", rerr, err)
	}
	if np == ptr {
		t.Fatal("realloc must move (quarantine semantics)")
	}
	if a.space.Load(np, 8) != 0xfeedface {
		t.Error("contents not copied")
	}
	if !p.addressable(np, 128) || !o.Addressable(np, 128) {
		t.Error("new region not addressable")
	}
	if p.addressable(ptr, 1) {
		t.Error("old region still addressable (stale pointers must be detectable)")
	}
	if sz, ok := a.UserSize(np); !ok || sz != 128 {
		t.Errorf("UserSize = %d,%v", sz, ok)
	}
}

func TestReallocShrinkAndEdgeCases(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	ptr, _ := a.Malloc(64)
	a.space.Store(ptr, 8, 0x1234)
	np, rerr, err := a.Realloc(ptr, 16) // shrink: copies min(old,new)
	if err != nil || rerr != nil {
		t.Fatal(rerr, err)
	}
	if a.space.Load(np, 8) != 0x1234 {
		t.Error("shrink lost contents")
	}
	// Realloc(0, n) == Malloc.
	fresh, rerr, err := a.Realloc(0, 32)
	if err != nil || rerr != nil || fresh == 0 {
		t.Errorf("Realloc(0): %v %v %v", fresh, rerr, err)
	}
	// Realloc of an invalid pointer is a detection.
	_, rerr, err = a.Realloc(fresh+8, 64)
	if err != nil || rerr == nil || rerr.Kind != report.InvalidFree {
		t.Errorf("interior realloc: %v %v", rerr, err)
	}
	// Realloc of a freed pointer is a detection.
	a.Free(np)
	_, rerr, _ = a.Realloc(np, 64)
	if rerr == nil {
		t.Error("realloc of freed chunk not reported")
	}
}

func TestTCacheFlush(t *testing.T) {
	a, p, _ := newHeap(t, Config{})
	tc := a.NewTCache()
	tc.FlushAt = 4
	var ptrs []vmem.Addr
	for i := 0; i < 3; i++ {
		ptr, err := tc.Malloc(32)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	for _, ptr := range ptrs {
		if err := tc.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	if tc.Pending() != 3 {
		t.Errorf("Pending = %d, want 3", tc.Pending())
	}
	// Freed-but-unflushed memory must already be poisoned.
	if p.addressable(ptrs[0], 1) {
		t.Error("tcache-freed memory still addressable before flush")
	}
	// Central stats see the frees only after the flush.
	if st := a.Stats(); st.Frees != 0 {
		t.Errorf("central Frees = %d before flush", st.Frees)
	}
	if err := tc.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Frees != 3 {
		t.Errorf("central Frees = %d after flush, want 3", st.Frees)
	}
}

func TestTCacheAutoFlushAndDoubleFree(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	tc := a.NewTCache()
	tc.FlushAt = 2
	p1, _ := tc.Malloc(16)
	p2, _ := tc.Malloc(16)
	tc.Free(p1)
	if err := tc.Free(p2); err != nil { // triggers auto flush
		t.Fatal(err)
	}
	if tc.Pending() != 0 {
		t.Errorf("auto flush did not run: pending=%d", tc.Pending())
	}
	if err := tc.Free(p1); err == nil || err.Kind != report.DoubleFree {
		t.Errorf("double free through tcache: got %v", err)
	}
}

func TestFreeListReuseStats(t *testing.T) {
	a, _, _ := newHeap(t, Config{NoQuarantine: true})
	p1, _ := a.Malloc(64)
	a.Free(p1)
	a.Malloc(64)
	if st := a.Stats(); st.FreeListReuses != 1 {
		t.Errorf("FreeListReuses = %d, want 1", st.FreeListReuses)
	}
}
