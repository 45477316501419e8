package service

import "testing"

// warmSessionAllocs submits one cold session of the workload id, then
// returns the Go allocations per warm session on the same pooled arena.
func warmSessionAllocs(t *testing.T, id string) float64 {
	t.Helper()
	e := New(Config{Workers: 1})
	defer e.Close()
	req := Request{Workload: id, Sanitizer: "giantsan"}
	session := func() {
		resp, err := e.Submit(req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("status %q: %s", resp.Status, resp.Message)
		}
	}
	session() // the cold session builds the pooled arena
	n := testing.AllocsPerRun(3, session)
	if st := e.ArenaStats(); st.Misses != 1 {
		t.Fatalf("%d cold arenas, want 1: the measured sessions were not warm", st.Misses)
	}
	return n
}

// TestWarmChurnSessionAllocations: a warm pooled session of the
// allocation-heavy 502.gcc_r kernel allocates a bounded number of Go
// objects — request, workload build, compile, response — and none per
// interpreted call, heap chunk or quarantine eviction, which would be
// tens of thousands. It reads about 230; 250 leaves room for map growth
// and would fail if workload.ByID rebuilt the 24-kernel list again
// (about 50 more).
func TestWarmChurnSessionAllocations(t *testing.T) {
	if n := warmSessionAllocs(t, "502.gcc_r"); n >= 250 {
		t.Errorf("%v allocations per warm 502.gcc_r session, want under 250", n)
	}
}

// TestWarmCheckSessionAllocations: a warm session of the check-heavy
// 523.xalancbmk_r kernel allocates only per session, not per access. It
// reads about 110 (about 160 when workload.ByID rebuilt the kernel list).
func TestWarmCheckSessionAllocations(t *testing.T) {
	if n := warmSessionAllocs(t, "523.xalancbmk_r"); n >= 130 {
		t.Errorf("%v allocations per warm 523.xalancbmk_r session, want under 130", n)
	}
}
