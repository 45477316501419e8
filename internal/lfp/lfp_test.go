package lfp

import (
	"testing"
	"testing/quick"

	"giantsan/internal/report"
	"giantsan/internal/vmem"
)

func newRT(t *testing.T) *Runtime {
	t.Helper()
	return New(Config{HeapBytes: 16 << 20, MaxClass: 1 << 16, WithOracle: true})
}

// alloca is Alloca failing the test when the stack is exhausted.
func alloca(t *testing.T, r *Runtime, size uint64) vmem.Addr {
	t.Helper()
	p, err := r.Alloca(size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClasses(t *testing.T) {
	cs := Classes(128)
	want := []uint64{16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128}
	if len(cs) != len(want) {
		t.Fatalf("Classes(128) = %v, want %v", cs, want)
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("Classes(128) = %v, want %v", cs, want)
		}
	}
}

func TestRoundedSize(t *testing.T) {
	r := newRT(t)
	tests := []struct{ size, want uint64 }{
		{1, 16}, {16, 16}, {17, 24}, {24, 24}, {25, 32},
		{100, 112}, {600, 640},
	}
	for _, tt := range tests {
		if got := r.RoundedSize(tt.size); got != tt.want {
			t.Errorf("RoundedSize(%d) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestMallocSlotAlignment(t *testing.T) {
	r := newRT(t)
	for _, size := range []uint64{1, 24, 100, 1000} {
		p, err := r.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if p%8 != 0 {
			t.Errorf("Malloc(%d) unaligned: %#x", size, p)
		}
		slot, cls, ok := r.slotOf(p)
		if !ok || slot != p {
			t.Errorf("Malloc(%d): pointer %#x is not its slot base %#x", size, p, slot)
		}
		if cls != r.RoundedSize(size) {
			t.Errorf("Malloc(%d): class %d, want %d", size, cls, r.RoundedSize(size))
		}
	}
}

// TestFalseNegativeBoundary is invariant 7: accesses inside the rounded
// class always pass; accesses beyond it always fail.
func TestFalseNegativeBoundary(t *testing.T) {
	r := newRT(t)
	f := func(s uint16) bool {
		size := uint64(s%2000) + 1
		p, err := r.Malloc(size)
		if err != nil {
			return true
		}
		cls := r.RoundedSize(size)
		// Last byte of the slot: always accepted (the false negative).
		if r.CheckAccess(p+vmem.Addr(cls-1), 1, report.Read) != nil {
			return false
		}
		// First byte beyond the slot: the neighbouring slot — bounds from
		// the anchor must reject it.
		if r.CheckAnchored(p, p+vmem.Addr(cls), 1, report.Read) == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnchoredCrossSlotDetected(t *testing.T) {
	r := newRT(t)
	p1, _ := r.Malloc(600) // class 640
	err := r.CheckAnchored(p1, p1+640, 8, report.Write)
	if err == nil || !err.Kind.Spatial() {
		t.Errorf("cross-slot overflow: %v", err)
	}
	err = r.CheckAnchored(p1, p1-1, 1, report.Read)
	if err == nil || err.Kind != report.HeapBufferUnderflow {
		t.Errorf("underflow: %v", err)
	}
}

func TestPaperExampleP600(t *testing.T) {
	// §2.1: "it cannot detect the out-of-bound access p[700] for a buffer
	// char p[600] because the buffer is rounded up" — BBC rounds to 1024;
	// LFP's finer classes round 600 to 640, so p[700] IS caught but
	// p[639] is not. The structural false-negative window is what matters.
	r := newRT(t)
	p, _ := r.Malloc(600)
	if err := r.CheckAnchored(p, p+639, 1, report.Read); err != nil {
		t.Errorf("p[639] inside the rounded slot should be missed, got %v", err)
	}
	if err := r.CheckAnchored(p, p+700, 1, report.Read); err == nil {
		t.Error("p[700] beyond the 640-slot should be caught")
	}
}

func TestUseAfterFreeUntilReuse(t *testing.T) {
	r := newRT(t)
	p, _ := r.Malloc(64)
	if err := r.Free(p); err != nil {
		t.Fatal(err)
	}
	// Freed slot, not yet reused: detected.
	if err := r.CheckAccess(p, 8, report.Read); err == nil || err.Kind != report.UseAfterFree {
		t.Errorf("freed slot access: %v", err)
	}
	// Reuse the slot (no quarantine: immediate).
	p2, _ := r.Malloc(64)
	if p2 != p {
		t.Fatalf("expected immediate reuse, got %#x vs %#x", p2, p)
	}
	// The dangling access is now invisible: LFP's temporal hole.
	if err := r.CheckAccess(p, 8, report.Read); err != nil {
		t.Errorf("access after reuse should be missed: %v", err)
	}
}

func TestDoubleFreeAndInvalidFree(t *testing.T) {
	r := newRT(t)
	p, _ := r.Malloc(64)
	r.Free(p)
	if err := r.Free(p); err == nil || err.Kind != report.DoubleFree {
		t.Errorf("double free: %v", err)
	}
	if err := r.Free(p + 8); err == nil || err.Kind != report.InvalidFree {
		t.Errorf("interior free: %v", err)
	}
}

func TestStackProtectionRule(t *testing.T) {
	r := newRT(t)
	r.PushFrame()
	defer r.PopFrame()
	// 64 is class-exact and ≥ 64: protected — overflow detected.
	p := alloca(t, r, 64)
	if err := r.CheckAnchored(p, p+64, 1, report.Write); err == nil {
		t.Error("protected stack local overflow missed")
	}
	// 60 is not class-exact: unprotected — overflow missed.
	q := alloca(t, r, 60)
	if err := r.CheckAnchored(q, q+64, 1, report.Write); err != nil {
		t.Errorf("unprotected stack local unexpectedly caught: %v", err)
	}
}

func TestStackFrameLifecycle(t *testing.T) {
	r := newRT(t)
	r.PushFrame()
	a := alloca(t, r, 100)
	r.PushFrame()
	b := alloca(t, r, 100)
	_ = b
	r.PopFrame()
	r.PopFrame()
	// The stack bump is back at the start; new frames reuse addresses.
	r.PushFrame()
	c := alloca(t, r, 100)
	if c != a {
		t.Errorf("stack not recycled: %#x vs %#x", c, a)
	}
	r.PopFrame()
}

func TestWildAndNull(t *testing.T) {
	r := newRT(t)
	if err := r.CheckAccess(0, 8, report.Read); err == nil || err.Kind != report.NullDereference {
		t.Errorf("null: %v", err)
	}
	if err := r.CheckAccess(r.Space().Limit()+4096, 8, report.Read); err == nil || err.Kind != report.WildAccess {
		t.Errorf("wild: %v", err)
	}
}

func TestCheckRange(t *testing.T) {
	r := newRT(t)
	p, _ := r.Malloc(200) // class 224
	if err := r.CheckRange(p, p+200, report.Write); err != nil {
		t.Errorf("intra-slot range: %v", err)
	}
	if err := r.CheckRange(p, p+225, report.Write); err == nil {
		t.Error("cross-slot range missed")
	}
	if err := r.CheckRange(p, p, report.Read); err != nil {
		t.Error("empty range")
	}
}

func TestChecksAreO1(t *testing.T) {
	// LFP never loads shadow metadata: ShadowLoads stays zero however
	// large the region.
	r := newRT(t)
	p, _ := r.Malloc(60000)
	r.Stats().Reset()
	if err := r.CheckRange(p, p+60000, report.Read); err != nil {
		t.Fatal(err)
	}
	if r.Stats().ShadowLoads != 0 {
		t.Error("LFP should not load shadow metadata")
	}
	if r.Stats().Checks != 1 {
		t.Errorf("Checks = %d, want 1", r.Stats().Checks)
	}
}

func TestOracleMirroring(t *testing.T) {
	r := newRT(t)
	p, _ := r.Malloc(100)
	o := r.Oracle()
	if !o.Addressable(p, 100) {
		t.Error("oracle missing allocation")
	}
	if o.Addressable(p, 101) {
		t.Error("oracle marked rounding slack addressable; ground truth must only bless requested bytes")
	}
	r.Free(p)
	if o.Addressable(p, 1) {
		t.Error("oracle missing free")
	}
}
