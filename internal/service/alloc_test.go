package service

import "testing"

// TestWarmChurnSessionAllocations: a warm pooled session of the
// allocation-heavy 502.gcc_r kernel allocates a bounded number of Go
// objects — request, workload build, compile, response — and none per
// interpreted call, heap chunk or quarantine eviction, which would be
// tens of thousands.
func TestWarmChurnSessionAllocations(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	req := Request{Workload: "502.gcc_r", Sanitizer: "giantsan"}
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
	if n := testing.AllocsPerRun(3, session); n >= 1000 {
		t.Errorf("%v allocations per warm 502.gcc_r session, want under 1000", n)
	}
	if st := e.ArenaStats(); st.Misses != 1 {
		t.Fatalf("%d cold arenas, want 1: the measured sessions were not warm", st.Misses)
	}
}
