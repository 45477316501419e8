package service

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testFedConfig drives membership transitions manually (CheckHealth) so
// tests never race the background sweep, and keeps probe timeouts short
// enough that a hung backend fails fast.
func testFedConfig(members ...BackendMember) FederationConfig {
	return FederationConfig{
		Members:        members,
		HealthInterval: time.Hour,
		HealthTimeout:  500 * time.Millisecond,
		ConnectTimeout: 500 * time.Millisecond,
		RequestTimeout: time.Minute,
	}
}

// testBackendConfig gives a backend engine enough queue headroom that a
// whole test batch fits in its admission queue.
func testBackendConfig() Config {
	return Config{Workers: 4, QueueDepth: 128}
}

// metricValues sums the samples of a family in Prometheus text output.
func metricValues(t *testing.T, text, family string) (sum uint64, samples int) {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(family) + `(?:\{[^}]*\})? (\d+)$`)
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", m[0], err)
		}
		sum += v
		samples++
	}
	return sum, samples
}

// fedBackend is one in-process backend: a real engine behind its HTTP
// surface behind httptest, with a handler-level session counter so tests
// can prove at-most-once execution across the proxy's retry path.
type fedBackend struct {
	eng      *Engine
	srv      *httptest.Server
	sessions atomic.Uint64
}

func startFedBackend(t *testing.T) *fedBackend {
	t.Helper()
	b := &fedBackend{eng: New(testBackendConfig())}
	inner := NewServer(b.eng)
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sessions" && r.Method == http.MethodPost {
			b.sessions.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		b.srv.Close()
		b.eng.Close()
	})
	return b
}

func newFedRouter(t *testing.T, backends map[string]*fedBackend) *RemoteBackend {
	t.Helper()
	var members []BackendMember
	for name, b := range backends {
		members = append(members, BackendMember{Name: name, URL: b.srv.URL})
	}
	rb, err := NewRemoteBackend(testFedConfig(members...))
	if err != nil {
		t.Fatalf("NewRemoteBackend: %v", err)
	}
	t.Cleanup(rb.Close)
	return rb
}

// TestFederationStickyRoutingAndStamps: sessions route to the ring's
// backend, every response is stamped with its Backend, and a tenant's
// placement is sticky across submissions.
func TestFederationStickyRoutingAndStamps(t *testing.T) {
	backends := map[string]*fedBackend{
		"b0": startFedBackend(t),
		"b1": startFedBackend(t),
	}
	rb := newFedRouter(t, backends)

	seen := make(map[string]string)
	for i := 0; i < 12; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		resp, err := rb.Submit(Request{Workload: "505.mcf_r", Tenant: tenant})
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("submit %s: status %s (%s)", tenant, resp.Status, resp.Message)
		}
		if resp.Backend == "" {
			t.Fatalf("tenant %s: response carries no Backend", tenant)
		}
		if want := rb.MemberFor(tenant); resp.Backend != want {
			t.Fatalf("tenant %s ran on %s, ring says %s", tenant, resp.Backend, want)
		}
		seen[tenant] = resp.Backend
	}
	// Sticky: resubmission lands on the same backend.
	for tenant, backend := range seen {
		resp, err := rb.Submit(Request{Workload: "505.mcf_r", Tenant: tenant})
		if err != nil || resp.Backend != backend {
			t.Fatalf("tenant %s moved %s -> %s (err %v)", tenant, backend, resp.Backend, err)
		}
	}
	// The population must spread beyond one backend.
	spread := make(map[string]bool)
	for _, b := range seen {
		spread[b] = true
	}
	if len(spread) < 2 {
		t.Fatalf("12 tenants all landed on one backend: %v", seen)
	}
}

// TestFederationMetricsSumToAggregate is the federation metrics
// invariant: every per-backend gsan_backend_* family sums exactly to the
// front-end's aggregate family of the same name.
func TestFederationMetricsSumToAggregate(t *testing.T) {
	backends := map[string]*fedBackend{
		"b0": startFedBackend(t),
		"b1": startFedBackend(t),
	}
	rb := newFedRouter(t, backends)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rb.Submit(Request{Workload: "505.mcf_r", Tenant: fmt.Sprintf("tenant-%d", i)}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(i)
	}
	wg.Wait()

	var sb strings.Builder
	rb.WriteMetrics(&sb)
	text := sb.String()
	for _, family := range []string{
		"sessions_started_total", "sessions_completed_total", "sessions_rejected_total",
		"arena_pool_hits_total", "arena_pool_misses_total", "queue_depth",
	} {
		agg, aggN := metricValues(t, text, "gsan_"+family)
		per, perN := metricValues(t, text, "gsan_backend_"+family)
		if aggN != 1 {
			t.Fatalf("family gsan_%s: %d aggregate samples\n%s", family, aggN, text)
		}
		if perN != 2 {
			t.Fatalf("family gsan_backend_%s: %d samples, want one per backend", family, perN)
		}
		if agg != per {
			t.Fatalf("family %s: aggregate %d != per-backend sum %d\n%s", family, agg, per, text)
		}
	}
	if got, _ := metricValues(t, text, "gsan_sessions_completed_total"); got != 16 {
		t.Fatalf("federated completed %d, want 16", got)
	}
	if up, n := metricValues(t, text, "gsan_backend_up"); up != 2 || n != 2 {
		t.Fatalf("gsan_backend_up sum=%d samples=%d, want both backends up", up, n)
	}
	// Proxied totals account for every session exactly once.
	if proxied, _ := metricValues(t, text, "gsan_proxy_sessions_proxied_total"); proxied != 16 {
		t.Fatalf("proxied %d, want 16", proxied)
	}
}

// startFedBackends starts n backends named b0..b(n-1).
func startFedBackends(t *testing.T, n int) map[string]*fedBackend {
	t.Helper()
	backends := make(map[string]*fedBackend, n)
	for i := 0; i < n; i++ {
		backends[fmt.Sprintf("b%d", i)] = startFedBackend(t)
	}
	return backends
}

// TestShardSubmitRoutesByTenant proves a four-member federation runs each
// session on the ring's member for its tenant: the Backend stamp names
// that member, and that member's handler — no other — took the session.
func TestShardSubmitRoutesByTenant(t *testing.T) {
	backends := startFedBackends(t, 4)
	rb := newFedRouter(t, backends)
	for i := 0; i < 8; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		before := make(map[string]uint64, len(backends))
		for name, b := range backends {
			before[name] = b.sessions.Load()
		}
		resp, err := rb.Submit(Request{Workload: "505.mcf_r", Tenant: tenant})
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("submit %s: status %s (%s)", tenant, resp.Status, resp.Message)
		}
		want := rb.MemberFor(tenant)
		if resp.Backend != want {
			t.Fatalf("tenant %s stamped %s, ring says %s", tenant, resp.Backend, want)
		}
		for name, b := range backends {
			got, exp := b.sessions.Load()-before[name], uint64(0)
			if name == want {
				exp = 1
			}
			if got != exp {
				t.Fatalf("tenant %s: backend %s took %d sessions, want %d", tenant, name, got, exp)
			}
		}
	}
}

// TestShardMetricsSumToAggregate runs tenants across a four-member
// federation and asserts that the per-member gsan_backend_* samples sum
// exactly to the aggregate families, and that each member's sample is
// that member's own count: the session total its engine reports and the
// sessions its handler took.
func TestShardMetricsSumToAggregate(t *testing.T) {
	backends := startFedBackends(t, 4)
	rb := newFedRouter(t, backends)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rb.Submit(Request{Workload: "505.mcf_r", Tenant: fmt.Sprintf("tenant-%d", i)}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(i)
	}
	wg.Wait()

	var sb strings.Builder
	rb.WriteMetrics(&sb)
	text := sb.String()
	for _, family := range []string{
		"sessions_started_total", "sessions_completed_total", "sessions_rejected_total",
		"arena_pool_hits_total", "arena_pool_misses_total", "arena_pool_size",
	} {
		agg, aggN := metricValues(t, text, "gsan_"+family)
		per, perN := metricValues(t, text, "gsan_backend_"+family)
		if aggN != 1 {
			t.Fatalf("family gsan_%s: %d aggregate samples\n%s", family, aggN, text)
		}
		if perN != 4 {
			t.Fatalf("family gsan_backend_%s: %d samples, want one per member", family, perN)
		}
		if agg != per {
			t.Fatalf("family %s: aggregate %d != per-member sum %d\n%s", family, agg, per, text)
		}
	}
	if got, _ := metricValues(t, text, "gsan_sessions_completed_total"); got != 24 {
		t.Fatalf("completed %d, want 24", got)
	}
	for name, b := range backends {
		var own strings.Builder
		b.eng.WriteMetrics(&own)
		engine, _ := metricValues(t, own.String(), "gsan_sessions_completed_total")
		member, n := metricValues(t, text, fmt.Sprintf("gsan_backend_sessions_completed_total{backend=%q}", name))
		if n != 1 || member != engine || member != b.sessions.Load() {
			t.Fatalf("backend %s: federated sample %d (%d samples), engine reports %d, handler took %d",
				name, member, n, engine, b.sessions.Load())
		}
	}
}

// TestShardedMatchesUnsharded is the virtual-clock determinism property:
// the same session batch produces identical per-session outcomes (status,
// virtual bill, checksum, stats) on one engine and on a four-member
// federation — sharding changes placement and throughput, never results.
func TestShardedMatchesUnsharded(t *testing.T) {
	reqs := make([]Request, 12)
	for i := range reqs {
		wl := "505.mcf_r"
		if i%3 == 1 {
			wl = "500.perlbench_r"
		}
		san := "giantsan"
		if i%4 == 2 {
			san = "asan"
		}
		reqs[i] = Request{Workload: wl, Sanitizer: san, Tenant: fmt.Sprintf("tenant-%d", i)}
	}
	run := func(submit func(Request) (*Response, error)) []*Response {
		out := make([]*Response, len(reqs))
		var wg sync.WaitGroup
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req Request) {
				defer wg.Done()
				resp, err := submit(req)
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				out[i] = resp
			}(i, req)
		}
		wg.Wait()
		return out
	}
	eng := New(testBackendConfig())
	defer eng.Close()
	one := run(eng.Submit)
	four := run(newFedRouter(t, startFedBackends(t, 4)).Submit)
	for i := range reqs {
		a, b := one[i], four[i]
		if a == nil || b == nil {
			t.Fatalf("request %d missing a response", i)
		}
		if a.Status != b.Status || a.VirtualNs != b.VirtualNs ||
			a.Checksum != b.Checksum || a.Stats != b.Stats || a.ErrorTotal != b.ErrorTotal {
			t.Fatalf("request %d diverges between one engine and 4 members:\n1: %+v\n4: %+v", i, a, b)
		}
	}
}

// memberAssignments snapshots the current placement of a key population.
func memberAssignments(rb *RemoteBackend, keys int) map[string]string {
	out := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("tenant-%d", i)
		out[k] = rb.MemberFor(k)
	}
	return out
}

// TestFederationEjectionRemapsOneNth: killing one of three backends moves
// only that backend's tenants (~1/3), every survivor-keyed tenant stays
// put, and a batch of sessions after the kill loses none: every one is
// served, by its old backend or, for the dead backend's tenants, by the
// survivor the ring now names.
func TestFederationEjectionRemapsOneNth(t *testing.T) {
	backends := map[string]*fedBackend{
		"b0": startFedBackend(t),
		"b1": startFedBackend(t),
		"b2": startFedBackend(t),
	}
	rb := newFedRouter(t, backends)

	const keys = 300
	before := memberAssignments(rb, keys)
	backends["b1"].srv.Close() // hard kill: connections refused from here on
	rb.CheckHealth()
	if rb.Up("b1") {
		t.Fatal("killed backend still marked up after CheckHealth")
	}
	after := memberAssignments(rb, keys)

	moved, fromDead := 0, 0
	for k, b := range before {
		if after[k] != b {
			moved++
			if b != "b1" {
				t.Fatalf("key %s was on survivor %s but moved to %s", k, b, after[k])
			}
		}
		if b == "b1" {
			fromDead++
			if after[k] == "b1" || after[k] == "" {
				t.Fatalf("key %s still assigned to dead backend (now %q)", k, after[k])
			}
		}
	}
	if moved != fromDead {
		t.Fatalf("moved %d keys but only %d lived on the dead backend", moved, fromDead)
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("ejection moved %d/%d keys; expected ~1/3", moved, keys)
	}
	// No session is lost across the kill: a whole batch of tenants is
	// served, survivors' tenants by their old backend and the dead
	// backend's tenants by the ring's new choice.
	const batch = 32
	remapped := 0
	for i := 0; i < batch; i++ {
		k := fmt.Sprintf("tenant-%d", i)
		resp, err := rb.Submit(Request{Workload: "505.mcf_r", Tenant: k})
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("tenant %s (was on %s): resp=%+v err=%v", k, before[k], resp, err)
		}
		want := before[k]
		if want == "b1" {
			want = after[k]
			remapped++
		}
		if resp.Backend != want {
			t.Fatalf("tenant %s (was on %s) served by %s, want %s", k, before[k], resp.Backend, want)
		}
	}
	if remapped == 0 || remapped == batch {
		t.Fatalf("%d of %d batch tenants lived on the dead backend; the batch must cover both kinds", remapped, batch)
	}
}

// TestFederationJoinRemapsOneNth: a configured backend that comes up
// later claims ~1/N of the keyspace; every move is TO the joiner.
func TestFederationJoinRemapsOneNth(t *testing.T) {
	backends := map[string]*fedBackend{
		"b0": startFedBackend(t),
		"b1": startFedBackend(t),
	}
	// b2 is configured but not yet serving: its listener accepts
	// connections the server never answers, so the probe times out.
	late := httptest.NewUnstartedServer(NewServer(New(testBackendConfig())))
	t.Cleanup(late.Close)

	members := []BackendMember{
		{Name: "b0", URL: backends["b0"].srv.URL},
		{Name: "b1", URL: backends["b1"].srv.URL},
		{Name: "b2", URL: "http://" + late.Listener.Addr().String()},
	}
	rb, err := NewRemoteBackend(testFedConfig(members...))
	if err != nil {
		t.Fatalf("NewRemoteBackend: %v", err)
	}
	t.Cleanup(rb.Close)
	if rb.Up("b2") {
		t.Fatal("unserved backend marked up at construction")
	}

	const keys = 300
	before := memberAssignments(rb, keys)
	late.Start()
	rb.CheckHealth()
	if !rb.Up("b2") {
		t.Fatal("joined backend not marked up after CheckHealth")
	}
	after := memberAssignments(rb, keys)

	moved := 0
	for k, b := range before {
		if after[k] != b {
			moved++
			if after[k] != "b2" {
				t.Fatalf("key %s moved %s -> %s, not to the joiner", k, b, after[k])
			}
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("join moved %d/%d keys; expected ~1/3", moved, keys)
	}
}

// TestFederationRetryOnConnectRefusedOnly proves both halves of the
// at-most-once retry contract: a connect-refused dial (backend never saw
// the session) ejects, re-rings and retries exactly once; a failure after
// the request was accepted is surfaced as 502 with no retry.
func TestFederationRetryOnConnectRefusedOnly(t *testing.T) {
	backends := map[string]*fedBackend{
		"b0": startFedBackend(t),
		"b1": startFedBackend(t),
	}
	rb := newFedRouter(t, backends)

	// A tenant routed to b0, which dies before the session is submitted.
	tenant := ""
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("tenant-%d", i)
		if rb.MemberFor(k) == "b0" {
			tenant = k
			break
		}
	}
	if tenant == "" {
		t.Fatal("no tenant routed to b0")
	}
	backends["b0"].srv.Close()
	// Drop the proxy's pooled keep-alive connections to the dead backend:
	// a stale-conn EOF is ambiguous (the request may have been accepted)
	// and deliberately not retried; only a fresh dial proves
	// connect-refused, which is the case under test.
	for _, m := range rb.members {
		m.client.CloseIdleConnections()
	}

	resp, err := rb.Submit(Request{Workload: "505.mcf_r", Tenant: tenant})
	if err != nil {
		t.Fatalf("submit after backend death: %v", err)
	}
	if resp.Status != StatusOK || resp.Backend != "b1" {
		t.Fatalf("retried session: %+v, want ok on b1", resp)
	}
	if got := backends["b1"].sessions.Load(); got != 1 {
		t.Fatalf("b1 executed %d sessions, want exactly 1 (no duplicates)", got)
	}
	if rb.Up("b0") {
		t.Fatal("dead backend still in the ring after connect failure")
	}
	if rb.retries.Load() != 1 {
		t.Fatalf("retries counter = %d, want 1", rb.retries.Load())
	}

	// Accepted-then-broken: the backend hijacks the connection and kills
	// it mid-response. The session may have executed — no retry allowed.
	var accepted atomic.Uint64
	killer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		accepted.Add(1)
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server cannot hijack")
			return
		}
		conn, _, _ := hj.Hijack()
		conn.Close()
	}))
	t.Cleanup(killer.Close)
	rb2, err := NewRemoteBackend(testFedConfig(BackendMember{Name: "k0", URL: killer.URL}))
	if err != nil {
		t.Fatalf("NewRemoteBackend: %v", err)
	}
	t.Cleanup(rb2.Close)
	_, err = rb2.Submit(Request{Workload: "505.mcf_r", Tenant: "t"})
	if !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("mid-session failure err = %v, want ErrBackendUnavailable", err)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("accepted-session attempts = %d, want exactly 1 (never retried)", got)
	}
	if rb2.retries.Load() != 0 {
		t.Fatalf("accepted-session failure was retried %d times", rb2.retries.Load())
	}
}

// TestFederationPropagatesBackendOverload: a backend's 429 and 503 travel
// through the proxy with the backend's own Retry-After, end to end over
// the front-end's HTTP surface.
func TestFederationPropagatesBackendOverload(t *testing.T) {
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		case "/sessions":
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
		}
	}))
	t.Cleanup(overloaded.Close)
	rb, err := NewRemoteBackend(testFedConfig(BackendMember{Name: "b0", URL: overloaded.URL}))
	if err != nil {
		t.Fatalf("NewRemoteBackend: %v", err)
	}
	t.Cleanup(rb.Close)

	_, err = rb.Submit(Request{Workload: "505.mcf_r"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("backend 429 mapped to %v, want ErrQueueFull", err)
	}
	if secs := retryAfterIn(err, 0); secs != 7 {
		t.Fatalf("propagated Retry-After = %d, want the backend's 7", secs)
	}

	// End to end: the front-end's own HTTP surface relays status + header.
	front := httptest.NewServer(NewFederatedServer(rb))
	t.Cleanup(front.Close)
	resp, body := postJSON(t, front.URL+"/sessions", `{"workload":"505.mcf_r"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("front-end relayed %d (%s), want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("front-end Retry-After = %q, want the backend's 7", got)
	}
}

// TestFederationPreDrainsDrainingBackend: a backend mid-drain answers
// /healthz with 503 draining, and the health checker takes it out of the
// ring before tenants are routed into ErrDraining.
func TestFederationPreDrainsDrainingBackend(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	draining := New(Config{Workers: 1, QueueDepth: 4, OnSessionStart: func(*Request) {
		entered <- struct{}{}
		<-gate
	}})
	drainSrv := httptest.NewServer(NewServer(draining))
	t.Cleanup(drainSrv.Close)
	healthy := startFedBackend(t)

	rb, err := NewRemoteBackend(testFedConfig(
		BackendMember{Name: "b0", URL: drainSrv.URL},
		BackendMember{Name: "b1", URL: healthy.srv.URL},
	))
	if err != nil {
		t.Fatalf("NewRemoteBackend: %v", err)
	}
	t.Cleanup(rb.Close)
	if !rb.Up("b0") || !rb.Up("b1") {
		t.Fatal("both backends should start healthy")
	}

	// Hold a session on b0's worker, then begin its drain: Close blocks
	// until the gated session finishes, which is exactly the window where
	// /healthz must stop reporting green.
	go func() {
		draining.Submit(Request{Workload: stressWorkload, Sanitizer: "native"})
	}()
	<-entered
	closed := make(chan struct{})
	go func() { draining.Close(); close(closed) }()
	waitFor(t, "engine draining", func() bool { return draining.Draining() })

	resp, err := http.Get(drainSrv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", resp.StatusCode)
	}

	rb.CheckHealth()
	if rb.Up("b0") {
		t.Fatal("draining backend still in the ring after CheckHealth")
	}
	for i := 0; i < 50; i++ {
		if got := rb.MemberFor(fmt.Sprintf("tenant-%d", i)); got != "b1" {
			t.Fatalf("tenant-%d routed to %q during b0 drain, want b1", i, got)
		}
	}
	close(gate)
	<-closed
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
