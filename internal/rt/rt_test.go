package rt

import (
	"testing"

	"giantsan/internal/report"
	"giantsan/internal/vmem"
)

// alloca is Alloca failing the test when the stack is exhausted.
func alloca(t *testing.T, r Runtime, size uint64) vmem.Addr {
	t.Helper()
	p, err := r.Alloca(size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKindsAndNames(t *testing.T) {
	for kind, want := range map[Kind]string{GiantSan: "giantsan", ASan: "asan", ASanMinus: "asan--"} {
		if kind.String() != want {
			t.Errorf("Kind %d name = %q, want %q", kind, kind.String(), want)
		}
		env := New(Config{Kind: kind, HeapBytes: 1 << 20})
		if got := env.San().Name(); got != want {
			t.Errorf("sanitizer name = %q, want %q", got, want)
		}
	}
}

func TestRegionsDisjoint(t *testing.T) {
	env := New(Config{Kind: GiantSan, HeapBytes: 1 << 20, StackBytes: 1 << 18, GlobalBytes: 1 << 16, WithOracle: true})
	h, err := env.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	env.PushFrame()
	s := alloca(t, env, 64)
	g, err := env.Global(64)
	if err != nil {
		t.Fatal(err)
	}
	env.PopFrame()

	sp := env.Space()
	heapEnd := sp.Base() + 1<<20
	stackEnd := heapEnd + 1<<18
	if !(h < heapEnd) {
		t.Errorf("heap object %#x beyond heap region end %#x", h, heapEnd)
	}
	if !(s >= heapEnd && s < stackEnd) {
		t.Errorf("stack object %#x outside stack region [%#x,%#x)", s, heapEnd, stackEnd)
	}
	if !(g >= stackEnd && g < sp.Limit()) {
		t.Errorf("global %#x outside global region", g)
	}
}

func TestGlobalProtection(t *testing.T) {
	env := New(Config{Kind: GiantSan, HeapBytes: 1 << 20, WithOracle: true})
	g, err := env.Global(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.San().CheckRange(g, g+100, report.Read); err != nil {
		t.Fatalf("global body not addressable: %v", err)
	}
	// Offset 100 is the alignment tail inside the partial segment:
	// detected, generically classified.
	if errv := env.San().CheckAccess(g+100, 4, report.Write); errv == nil {
		t.Fatal("global overflow missed")
	}
	// Offset 104 is the global redzone proper: precisely classified.
	errv := env.San().CheckAccess(g+104, 4, report.Write)
	if errv == nil {
		t.Fatal("global redzone overflow missed")
	}
	if errv.Kind != report.GlobalBufferOverflow {
		t.Errorf("kind = %v, want global-buffer-overflow", errv.Kind)
	}
	if errv := env.San().CheckAccess(g-1, 1, report.Read); errv == nil || errv.Kind != report.GlobalBufferOverflow {
		t.Errorf("global underflow: %v", errv)
	}
	if !env.Oracle().Addressable(g, 100) {
		t.Error("oracle missing global")
	}
}

func TestGlobalExhaustion(t *testing.T) {
	env := New(Config{Kind: GiantSan, HeapBytes: 1 << 20, GlobalBytes: 4096})
	var err error
	for i := 0; i < 200 && err == nil; i++ {
		_, err = env.Global(64)
	}
	if err == nil {
		t.Error("global region never exhausted")
	}
}

func TestEnvAccessors(t *testing.T) {
	env := New(Config{Kind: ASan, HeapBytes: 1 << 20, WithOracle: true})
	if env.Heap() == nil || env.Stack() == nil || env.Space() == nil || env.Oracle() == nil {
		t.Error("accessor returned nil")
	}
	env2 := New(Config{Kind: ASan, HeapBytes: 1 << 20})
	if env2.Oracle() != nil {
		t.Error("oracle should be nil when disabled")
	}
}

func TestRuntimeInterfaceRoundTrip(t *testing.T) {
	var r Runtime = New(Config{Kind: GiantSan, HeapBytes: 1 << 20})
	p, err := r.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.San().CheckAccess(p, 8, report.Read); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(p); err != nil {
		t.Fatal(err)
	}
	r.PushFrame()
	l := alloca(t, r, 16)
	if l == 0 {
		t.Fatal("alloca failed")
	}
	r.PopFrame()
}

// TestQuarantineBypassLimitation reproduces the §5.4 "Quarantine
// Bypassing" limitation: once enough frees evict a chunk from the FIFO
// quarantine and it is reallocated, a dangling access to it is invisible —
// the known false-negative window shared by all quarantine-based tools.
func TestQuarantineBypassLimitation(t *testing.T) {
	env := New(Config{Kind: GiantSan, HeapBytes: 8 << 20, QuarantineBytes: 2048})
	dangling, _ := env.Malloc(64)
	if err := env.Free(dangling); err != nil {
		t.Fatal(err)
	}
	// While quarantined: detected.
	if err := env.San().CheckAccess(dangling, 8, report.Read); err == nil {
		t.Fatal("access to quarantined chunk passed")
	}
	// Flood the quarantine until the chunk is evicted and reallocated.
	var reused bool
	for i := 0; i < 200; i++ {
		p, err := env.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if p == dangling {
			reused = true
			break
		}
		env.Free(p)
	}
	if !reused {
		t.Fatal("chunk never reused; quarantine budget too large for the test")
	}
	// The bypass: the dangling pointer now aliases a live object.
	if err := env.San().CheckAccess(dangling, 8, report.Read); err != nil {
		t.Errorf("expected the documented false negative, got %v", err)
	}
}

// TestSubObjectInsensitivity documents the other §5.4 limitation: an
// overflow from one field into the next *inside* the same allocation is
// invisible to every location-based tool (the bytes are addressable).
func TestSubObjectInsensitivity(t *testing.T) {
	for _, kind := range []Kind{GiantSan, ASan} {
		env := New(Config{Kind: kind, HeapBytes: 1 << 20})
		// struct { char name[8]; long balance; } — overflowing name
		// corrupts balance but never leaves the allocation.
		obj, _ := env.Malloc(16)
		if err := env.San().CheckAccess(obj+8, 8, report.Write); err != nil {
			t.Errorf("%v: intra-object access must pass (and silently corrupt): %v", kind, err)
		}
	}
}
