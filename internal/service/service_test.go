package service

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/trace"
	"giantsan/internal/workload"
)

// stressWorkload is small enough that a 64-session stress test stays
// fast, even under -race.
const stressWorkload = "523.xalancbmk_r"

// recordTrace records one run of the workload to a portable trace and
// returns it base64-encoded, exactly as a client uploading a trace would.
func recordTrace(t testing.TB, id string) string {
	t.Helper()
	w := workload.ByID(id)
	return recordProg(t, w.Build(1), w.HeapBytes)
}

// recordProg records one GiantSan run of p on a heapBytes heap and
// returns the trace base64-encoded.
func recordProg(t testing.TB, p *ir.Prog, heapBytes uint64) string {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	inner := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: heapBytes})
	rec := trace.NewRecorder(inner, tw)
	ex, err := interp.Prepare(p, instrument.GiantSanProfile, rec)
	if err != nil {
		t.Fatalf("prepare recorder: %v", err)
	}
	ex.Run()
	if err := tw.Flush(); err != nil {
		t.Fatalf("flush trace: %v", err)
	}
	if rec.Err() != nil {
		t.Fatalf("record: %v", rec.Err())
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// waitQueueDepth spins until the engine's queue holds n admitted sessions.
func waitQueueDepth(e *Engine, n int) {
	for e.QueueDepth() != n {
		runtime.Gosched()
	}
}

func TestSessionWorkloadRun(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	resp, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "giantsan"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("status = %q (%s), want ok", resp.Status, resp.Message)
	}
	if resp.Stats.Checks == 0 || resp.VirtualNs <= 0 {
		t.Fatalf("no sanitizer work recorded: %+v", resp)
	}
	if resp.Arena != "cold" {
		t.Fatalf("first session arena = %q, want cold", resp.Arena)
	}
	if resp.ErrorTotal != 0 {
		t.Fatalf("clean workload reported %d errors", resp.ErrorTotal)
	}
	// Same config again: must be served warm from the pool.
	resp2, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "giantsan"})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if resp2.Arena != "warm" {
		t.Fatalf("second session arena = %q, want warm", resp2.Arena)
	}
	if resp2.VirtualNs != resp.VirtualNs || resp2.Stats != resp.Stats || resp2.Checksum != resp.Checksum {
		t.Fatalf("warm session diverged from cold:\ncold %+v\nwarm %+v", resp, resp2)
	}
}

func TestSessionTraceReplay(t *testing.T) {
	tr := recordTrace(t, stressWorkload)
	e := New(Config{Workers: 2})
	defer e.Close()
	var first *Response
	for _, label := range []string{"giantsan", "asan", "asan--", "lfp"} {
		resp, err := e.Submit(Request{TraceB64: tr, Sanitizer: label})
		if err != nil {
			t.Fatalf("replay under %s: %v", label, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("replay under %s: status %q (%s)", label, resp.Status, resp.Message)
		}
		if resp.Events == 0 {
			t.Fatalf("replay under %s: no events", label)
		}
		if first == nil {
			first = resp
		} else if resp.Events != first.Events {
			t.Fatalf("replay event count differs across sanitizers: %d vs %d", resp.Events, first.Events)
		}
	}
	// Garbage trace: in-band session error, not a server failure.
	resp, err := e.Submit(Request{TraceB64: base64.StdEncoding.EncodeToString([]byte("not a trace")), Sanitizer: "giantsan"})
	if err != nil {
		t.Fatalf("garbage replay submit: %v", err)
	}
	if resp.Status != StatusError {
		t.Fatalf("garbage trace status = %q, want error", resp.Status)
	}
}

// TestHostileSizeReplayIsAnError: a trace whose alloca sizes exhaust the
// simulated stack, or whose alloca or malloc sizes wrap the allocator's
// size rounding, gets an error status naming the event, under every
// sanitizer, and no session panics.
func TestHostileSizeReplayIsAnError(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	wrapping, err := trace.Encode([]trace.Event{
		{Op: trace.OpPush},
		{Op: trace.OpAlloca, Reg: 1, Size: 1<<64 - 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		data  []byte
		event string
	}{
		{[]byte("GST1\x05\x07000000000000"), "trace: event 2: "},
		{wrapping, "trace: event 2: "},
		{[]byte("GST1\x01000000\xff\xff\xff\xff\xff\xff"), "trace: event 1: "},
	} {
		for _, label := range []string{"giantsan", "asan", "lfp"} {
			resp, err := e.Submit(Request{TraceB64: base64.StdEncoding.EncodeToString(c.data), Sanitizer: label})
			if err != nil {
				t.Fatalf("submit under %s: %v", label, err)
			}
			if resp.Status != StatusError || !strings.Contains(resp.Message, c.event) {
				t.Errorf("hostile size under %s: status %q (%s), want a trace error at %q", label, resp.Status, resp.Message, c.event)
			}
		}
	}
	var m bytes.Buffer
	e.WriteMetrics(&m)
	if !strings.Contains(m.String(), "gsan_sessions_panicked_total 0") {
		t.Errorf("a hostile size panicked a session:\n%s", m.String())
	}
}

func TestValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	for _, req := range []Request{
		{}, // neither workload nor trace
		{Workload: stressWorkload, TraceB64: "AA=="},      // both
		{Workload: "999.nope_r"},                          // unknown workload
		{Workload: stressWorkload, Sanitizer: "valgrind"}, // unknown sanitizer
		{Workload: stressWorkload, Scale: -1},             // bad scale
		{Workload: stressWorkload, DeadlineNs: -5},        // bad deadline
	} {
		if _, err := e.Submit(req); err == nil {
			t.Errorf("request %+v was accepted, want validation error", req)
		}
	}
}

func TestDeadlineExpiry(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	resp, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "giantsan", DeadlineNs: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.Status != StatusTimeout {
		t.Fatalf("status = %q, want timeout (virtual bill %d ns vs deadline 1 ns)", resp.Status, resp.VirtualNs)
	}
	// The same session under a generous deadline is fine, and the virtual
	// bill is identical — deadline enforcement is deterministic.
	resp2, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "giantsan", DeadlineNs: resp.VirtualNs + 1})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if resp2.Status != StatusOK || resp2.VirtualNs != resp.VirtualNs {
		t.Fatalf("deadline not deterministic: %+v vs %+v", resp, resp2)
	}
	var m bytes.Buffer
	e.WriteMetrics(&m)
	if !strings.Contains(m.String(), "gsan_sessions_timedout_total 1") {
		t.Fatal("timeout not counted in metrics")
	}
}

func TestQueueOverflowBackpressure(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	e := New(Config{Workers: 1, QueueDepth: 1, OnSessionStart: func(*Request) {
		entered <- struct{}{}
		<-gate
	}})
	defer e.Close()
	req := Request{Workload: stressWorkload, Sanitizer: "native"}

	results := make(chan error, 2)
	submit := func() {
		_, err := e.Submit(req)
		results <- err
	}
	go submit() // occupies the single worker
	<-entered
	go submit() // sits in the single queue slot
	waitQueueDepth(e, 1)
	// Queue full, worker busy: the third session must be rejected.
	if _, err := e.Submit(req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("blocked session failed: %v", err)
		}
	}
	var m bytes.Buffer
	e.WriteMetrics(&m)
	if !strings.Contains(m.String(), "gsan_sessions_rejected_total 1") {
		t.Fatal("rejection not counted in metrics")
	}
}

func TestPanicIsolation(t *testing.T) {
	e := New(Config{Workers: 2, OnSessionStart: func(r *Request) {
		if r.Scale == 13 {
			panic("deliberately poisoned session")
		}
	}})
	defer e.Close()
	resp, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "giantsan", Scale: 13})
	if err != nil {
		t.Fatalf("submit poisoned: %v", err)
	}
	if resp.Status != StatusError || !strings.Contains(resp.Message, "panic") {
		t.Fatalf("poisoned session response = %+v, want isolated panic error", resp)
	}
	// The server must still be fully alive for the next tenant.
	resp2, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "giantsan"})
	if err != nil || resp2.Status != StatusOK {
		t.Fatalf("session after panic: resp=%+v err=%v", resp2, err)
	}
	var m bytes.Buffer
	e.WriteMetrics(&m)
	if !strings.Contains(m.String(), "gsan_sessions_panicked_total 1") {
		t.Fatal("panic not counted in metrics")
	}
}

func TestGracefulDrain(t *testing.T) {
	e := New(Config{Workers: 2})
	if _, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "native"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	e.Close()
	if _, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "native"}); err != ErrDraining {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	e.Close() // second Close is a no-op
}

// TestConcurrentSessionsDeterministic is the multi-tenancy contract: 64+
// concurrent sessions across every sanitizer produce, per request shape,
// reports identical to a sequential single-worker reference run — the
// pool recycling and interleaving must be observable to nobody.
func TestConcurrentSessionsDeterministic(t *testing.T) {
	tr := recordTrace(t, stressWorkload)
	labels := []string{"native", "giantsan", "asan", "asan--", "lfp", "cacheonly", "elimonly"}
	shapes := make([]Request, 0, len(labels)+2)
	for _, l := range labels {
		shapes = append(shapes, Request{Workload: stressWorkload, Sanitizer: l})
	}
	shapes = append(shapes,
		Request{TraceB64: tr, Sanitizer: "giantsan"},
		Request{TraceB64: tr, Sanitizer: "asan"},
	)

	// Reference outcomes from a sequential engine.
	ref := New(Config{Workers: 1})
	want := make(map[string]*Response)
	key := func(r Request) string { return r.Sanitizer + "/" + r.Workload + "/" + fmt.Sprint(r.TraceB64 != "") }
	for _, r := range shapes {
		resp, err := ref.Submit(r)
		if err != nil {
			t.Fatalf("reference %s: %v", key(r), err)
		}
		want[key(r)] = resp
	}
	ref.Close()

	// 72 concurrent sessions (8 copies of 9 shapes) against one engine.
	const copies = 8
	e := New(Config{Workers: 8, QueueDepth: len(shapes) * copies})
	defer e.Close()
	var wg sync.WaitGroup
	errs := make(chan error, len(shapes)*copies)
	for c := 0; c < copies; c++ {
		for _, r := range shapes {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := e.Submit(r)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", key(r), err)
					return
				}
				w := want[key(r)]
				if resp.Status != w.Status || resp.Stats != w.Stats ||
					resp.VirtualNs != w.VirtualNs || resp.Checksum != w.Checksum ||
					resp.ErrorTotal != w.ErrorTotal || resp.Events != w.Events {
					errs <- fmt.Errorf("%s diverged under concurrency:\nwant %+v\ngot  %+v", key(r), w, resp)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestArenaPoolHitRate pins the acceptance bar: at steady state the pool
// serves >= 90% of pooled sessions warm.
func TestArenaPoolHitRate(t *testing.T) {
	e := New(Config{Workers: 4, QueueDepth: 128})
	defer e.Close()
	const sessions = 96
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "giantsan"}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	as := e.ArenaStats()
	if as.Hits+as.Misses != sessions {
		t.Fatalf("pool saw %d sessions, want %d", as.Hits+as.Misses, sessions)
	}
	rate := float64(as.Hits) / float64(as.Hits+as.Misses)
	t.Logf("arena pool: %d hits, %d misses (%.1f%% hit rate)", as.Hits, as.Misses, 100*rate)
	// Cold misses are bounded by the worker count (4), so 96 sessions give
	// >= 95.8%; the acceptance bar is 90%.
	if rate < 0.9 {
		t.Fatalf("steady-state hit rate %.2f < 0.90", rate)
	}
}

// TestResetPreservesStatsIsolation: a session must never see another
// session's counters through a recycled arena.
func TestStatsIsolationAcrossSessions(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	r1, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "asan"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Submit(Request{Workload: stressWorkload, Sanitizer: "asan"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Arena != "warm" {
		t.Fatalf("second session arena = %q, want warm", r2.Arena)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("recycled arena leaked counters: %+v vs %+v", r1.Stats, r2.Stats)
	}
	var zero san.Stats
	if r1.Stats == zero {
		t.Fatal("sessions recorded no work at all")
	}
}
