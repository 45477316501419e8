package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/progen"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/vmem"
	"giantsan/internal/workload"
)

// The arena-pool acceptance numbers: recycling a warm arena must beat
// building a cold one. A cold rt.New writes no shadow bytes but zeroes
// the whole application space; Reset scrubs only the bytes a session
// actually dirtied, so the gap widens with arena size.
//
//	go test ./internal/service -bench Arena -benchtime 100x

var benchCfg = rt.Config{Kind: rt.GiantSan, HeapBytes: 32 << 20}

// dirtySession is a representative light tenant: a few allocations,
// some checked accesses, one free.
func dirtySession(env *rt.Env) {
	sn := env.San()
	ptrs := make([]vmem.Addr, 0, 16)
	for i := 0; i < 16; i++ {
		p, err := env.Malloc(1 << 12)
		if err != nil {
			panic(err)
		}
		sn.CheckAccess(p, 8, report.Write)
		sn.CheckAccess(p+4088, 8, report.Read)
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		env.Free(p)
	}
}

func BenchmarkArenaColdNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := rt.New(benchCfg)
		dirtySession(env)
	}
}

func BenchmarkArenaWarmRecycle(b *testing.B) {
	pool := rt.NewPool(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, _ := pool.Get(benchCfg)
		dirtySession(env)
		pool.Put(env)
	}
	b.StopTimer()
	st := pool.Stats()
	hitRate := float64(st.Hits) / float64(st.Hits+st.Misses)
	b.ReportMetric(100*hitRate, "pool-hit-%")
}

// BenchmarkServiceSession measures the full request path (validate,
// enqueue, execute, respond) at steady state, where nearly every session
// runs on a recycled arena.
func BenchmarkServiceSession(b *testing.B) {
	e := New(Config{Workers: 1})
	defer e.Close()
	req := Request{Workload: stressWorkload, Sanitizer: "giantsan"}
	if _, err := e.Submit(req); err != nil { // prime the pool
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Submit(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.ArenaStats()
	b.ReportMetric(100*float64(st.Hits)/float64(st.Hits+st.Misses), "pool-hit-%")
}

// BenchmarkReplaySession measures one small trace-replay session through
// the HTTP handler, transport aside: JSON request decode, base64 decode,
// queue hand-off, trace replay on a warm arena and response encode. The
// traces are recorded progen programs, alternately clean and with one
// planted overflow, like sessionbench's replay-small mix; each response
// is checked for its replayed events and its verdict.
//
//	go test ./internal/service -run '^$' -bench ReplaySession -benchmem
func BenchmarkReplaySession(b *testing.B) {
	type session struct {
		body  string
		buggy bool
	}
	var sessions []session
	for seed := int64(1); len(sessions) < 16; seed++ {
		p, buggy := progen.Clean(seed), len(sessions)%2 == 1
		if buggy {
			var planted bool
			if p, planted = progen.Buggy(seed); !planted {
				continue
			}
		}
		body := `{"trace_b64":"` + recordProg(b, p, 1<<20) + `","sanitizer":"giantsan"}`
		sessions = append(sessions, session{body, buggy})
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	srv := NewServer(e)
	run := func(s session) {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sessions", strings.NewReader(s.body)))
		var resp Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Status != StatusOK {
			b.Fatalf("session: %d %s", w.Code, w.Body.Bytes())
		}
		if resp.Events == 0 || (resp.ErrorTotal > 0) != s.buggy {
			b.Fatalf("session verdict: %d events, %d errors, buggy=%v", resp.Events, resp.ErrorTotal, s.buggy)
		}
	}
	for _, s := range sessions { // warm the arena pool and the buffers
		run(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(sessions[i%len(sessions)])
	}
}

// checkKernels and churnKernels are the check-heavy and the
// allocation-heavy kernels of sessionbench's spec-check and spec-churn
// mixes.
var (
	checkKernels = []string{"500.perlbench_r", "523.xalancbmk_r", "531.deepsjeng_r", "557.xz_r"}
	churnKernels = []string{"502.gcc_r", "520.omnetpp_r", "511.povray_r"}
)

// BenchmarkWorkloadSession measures one workload session through the HTTP
// handler on a warm arena: JSON request decode, queue hand-off, build,
// prepare and run under GiantSan, and response encode. /check runs the
// spec-check kernels, where the interpreter and the checks dominate;
// /churn the spec-churn kernels, where allocation and poisoning do. Each
// kernel is its own sub-benchmark (/check/500.perlbench_r, ...), so a
// change that helps one kernel and costs another shows both. Each
// response must be OK and carry the checksum of a fresh rt.New run of its
// kernel.
//
//	go test ./internal/service -run '^$' -bench WorkloadSession -benchmem
func BenchmarkWorkloadSession(b *testing.B) {
	for _, mix := range []struct {
		name    string
		kernels []string
	}{{"check", checkKernels}, {"churn", churnKernels}} {
		b.Run(mix.name, func(b *testing.B) {
			for _, id := range mix.kernels {
				b.Run(id, func(b *testing.B) { benchWorkloadSession(b, id) })
			}
		})
	}
}

func benchWorkloadSession(b *testing.B, id string) {
	w := workload.ByID(id)
	ex, err := interp.Prepare(w.Build(1), instrument.GiantSanProfile,
		rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: w.HeapBytes}))
	if err != nil {
		b.Fatal(err)
	}
	body := `{"workload":"` + id + `","sanitizer":"giantsan"}`
	checksum := fmt.Sprintf("%#x", ex.Run().Checksum)
	e := New(Config{Workers: 1})
	defer e.Close()
	srv := NewServer(e)
	run := func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sessions", strings.NewReader(body)))
		var resp Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Status != StatusOK {
			b.Fatalf("session: %d %s", w.Code, w.Body.Bytes())
		}
		if resp.Checksum != checksum {
			b.Fatalf("%s checksum %s, fresh run %s", resp.Workload, resp.Checksum, checksum)
		}
	}
	run() // warm the arena pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
