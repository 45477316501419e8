package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Multi-process federation: a RemoteBackend is the router half of
// `gsan -serve -federate http://b1,http://b2,...` — it satisfies the same
// Backend seam the HTTP layer serves, but Submit proxies the session to a
// backend gsan -serve process chosen by the consistent-hash ring in
// ring.go (keyed on tenant → workload → trace). There is no new wire
// format: the Request/Response JSON schema already carries everything,
// including tier resolution, and the front-end only adds the Backend
// stamp.
//
// Failure semantics, precisely:
//
//   - A backend that fails the /healthz probe (connect error, timeout, or
//     the 503 "draining" body) is ejected from the ring; its tenants remap
//     onto the survivors (~1/N of the population, the tested consistent-
//     hash property) and every other tenant keeps its placement.
//   - A session whose dial fails (connect refused — the backend never saw
//     the request) ejects the backend, re-rings, and retries ONCE on the
//     re-ringed backend. A session that was accepted — any error after the
//     connection was established — is never retried: the backend may have
//     executed it, and at-most-once execution is the contract.
//   - Backend 429/503 answers propagate honestly: the front-end relays the
//     status and the backend's own Retry-After instead of masking overload
//     as its own.

// BackendMember names one backend process. Name is the ring identity —
// placement hashes member names, not URLs, so a backend keeps its ring
// points across address changes and two routers with the same member
// names agree on placement.
type BackendMember struct {
	Name string
	URL  string
}

// FederationConfig parameterizes a RemoteBackend.
type FederationConfig struct {
	// Members are the backend processes. At least one is required; names
	// must be unique.
	Members []BackendMember
	// HealthInterval paces the background /healthz sweep; <= 0 means 1s.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe; <= 0 means 2s.
	HealthTimeout time.Duration
	// ConnectTimeout bounds dialing a backend; <= 0 means 2s.
	ConnectTimeout time.Duration
	// RequestTimeout bounds one proxied session end to end; <= 0 means 5m
	// (sessions are long-running by design).
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently proxied sessions per backend; the
	// front-end answers queue-full beyond it rather than piling unbounded
	// connections onto a struggling backend. <= 0 means 256.
	MaxInflight int
}

func (c FederationConfig) withDefaults() FederationConfig {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	return c
}

// remoteMember is one backend's hot-path state: a pooled keep-alive
// transport of its own (no cross-backend head-of-line blocking), a
// bounded in-flight semaphore, and health/traffic counters.
type remoteMember struct {
	name, url string
	client    *http.Client
	inflight  chan struct{}
	up        atomic.Bool
	proxied   atomic.Uint64 // sessions answered 200 by this backend
	errored   atomic.Uint64 // proxy attempts that failed on this backend
}

// fedRing is an immutable routing snapshot: a ring over the names of the
// currently-up members plus the mapping back to member indexes. Swapped
// atomically on membership change so Submit never takes the rebuild lock.
type fedRing struct {
	r   ring
	ids []int
}

// RemoteBackend routes sessions to remote gsan -serve processes. It
// implements Backend, so NewFederatedServer serves it over the same HTTP
// surface as an Engine.
type RemoteBackend struct {
	cfg     FederationConfig
	members []*remoteMember

	ring atomic.Pointer[fedRing]

	mu       sync.Mutex // serializes ring rebuilds and the draining flag
	draining bool

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	retries       atomic.Uint64
	ejections     atomic.Uint64
	rerings       atomic.Uint64
	scrapeFailed  atomic.Uint64
	noBackendErrs atomic.Uint64
}

// NewRemoteBackend validates the membership, probes every backend once
// synchronously (so the first ring reflects reality, not optimism), and
// starts the background health sweep. Callers must Close it.
func NewRemoteBackend(cfg FederationConfig) (*RemoteBackend, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Members) == 0 {
		return nil, errors.New("service: federation needs at least one backend")
	}
	seen := make(map[string]bool, len(cfg.Members))
	rb := &RemoteBackend{cfg: cfg, quit: make(chan struct{})}
	for _, m := range cfg.Members {
		if m.Name == "" || m.URL == "" {
			return nil, errors.New("service: federation member needs a name and a URL")
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("service: duplicate federation member %q", m.Name)
		}
		seen[m.Name] = true
		u, err := url.Parse(m.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("service: federation member %q: bad URL %q", m.Name, m.URL)
		}
		tr := &http.Transport{
			DialContext:         (&net.Dialer{Timeout: cfg.ConnectTimeout}).DialContext,
			MaxIdleConns:        cfg.MaxInflight,
			MaxIdleConnsPerHost: cfg.MaxInflight,
			IdleConnTimeout:     90 * time.Second,
		}
		rb.members = append(rb.members, &remoteMember{
			name:     m.Name,
			url:      strings.TrimRight(m.URL, "/"),
			client:   &http.Client{Transport: tr, Timeout: cfg.RequestTimeout},
			inflight: make(chan struct{}, cfg.MaxInflight),
		})
	}
	rb.CheckHealth()
	rb.wg.Add(1)
	go rb.healthLoop()
	return rb, nil
}

func (rb *RemoteBackend) healthLoop() {
	defer rb.wg.Done()
	tick := time.NewTicker(rb.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-rb.quit:
			return
		case <-tick.C:
			rb.CheckHealth()
		}
	}
}

// CheckHealth probes every configured member once and re-rings on any
// membership change. It is the synchronous form of the background sweep,
// exported so tests and the federation bench can drive membership
// transitions deterministically.
func (rb *RemoteBackend) CheckHealth() {
	changed := false
	for _, m := range rb.members {
		up := rb.probe(m)
		if m.up.Swap(up) != up {
			changed = true
			if !up {
				rb.ejections.Add(1)
			}
		}
	}
	if changed {
		rb.reRing()
	} else if rb.ring.Load() == nil {
		rb.reRing() // first call: publish the initial ring even if empty
	}
}

// probe asks one backend's /healthz. Anything but a 200 — connect error,
// timeout, or the 503 draining body — means the backend must not receive
// sessions: a draining backend would only answer ErrDraining, so it is
// pre-drained off the ring here rather than discovered per-session.
func (rb *RemoteBackend) probe(m *remoteMember) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rb.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// reRing publishes a new routing snapshot over the currently-up members.
// Member names (not indexes) feed the ring, so an ejection removes only
// the dead member's vnodes and remaps ~1/N of the keyspace.
func (rb *RemoteBackend) reRing() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	fr := &fedRing{}
	names := make([]string, 0, len(rb.members))
	for i, m := range rb.members {
		if m.up.Load() {
			names = append(names, m.name)
			fr.ids = append(fr.ids, i)
		}
	}
	fr.r = buildRing(names)
	rb.ring.Store(fr)
	rb.rerings.Add(1)
}

// pick routes a key to an up member, or nil when the ring is empty.
func (rb *RemoteBackend) pick(key string) *remoteMember {
	fr := rb.ring.Load()
	if fr == nil {
		return nil
	}
	i := fr.r.lookup(key)
	if i < 0 {
		return nil
	}
	return rb.members[fr.ids[i]]
}

// MemberFor returns the name of the backend the key currently routes to
// ("" when no backend is up) — the probe tests and the federation bench
// read placement through it.
func (rb *RemoteBackend) MemberFor(key string) string {
	m := rb.pick(key)
	if m == nil {
		return ""
	}
	return m.name
}

// Up reports whether the named member is currently in the ring.
func (rb *RemoteBackend) Up(name string) bool {
	for _, m := range rb.members {
		if m.name == name {
			return m.up.Load()
		}
	}
	return false
}

// Submit proxies one session to its tenant's backend. The single retry
// exists for exactly one failure: the dial never completed, so the
// backend provably never saw the session — eject it, re-ring, and try the
// key's new home once. Every post-accept failure returns an error instead
// of risking duplicate execution.
func (rb *RemoteBackend) Submit(req Request) (*Response, error) {
	rb.mu.Lock()
	draining := rb.draining
	rb.mu.Unlock()
	if draining {
		return nil, ErrDraining
	}
	key := routeKey(&req)
	m := rb.pick(key)
	if m == nil {
		rb.noBackendErrs.Add(1)
		return nil, ErrNoBackends
	}
	resp, err := rb.forward(m, &req)
	if err == nil || !isConnectError(err) {
		return resp, wrapTransportError(m, err)
	}
	// The backend is unreachable: eject it now (the health sweep would
	// find out an interval later), re-ring, and retry on the key's new
	// placement — which must be a different member, or there is no one
	// left to try.
	if m.up.Swap(false) {
		rb.ejections.Add(1)
		rb.reRing()
	}
	m2 := rb.pick(key)
	if m2 == nil {
		rb.noBackendErrs.Add(1)
		return nil, fmt.Errorf("%w: %s unreachable and no healthy backend remains: %v", ErrNoBackends, m.name, err)
	}
	rb.retries.Add(1)
	resp, err = rb.forward(m2, &req)
	if err != nil && isConnectError(err) {
		if m2.up.Swap(false) {
			rb.ejections.Add(1)
			rb.reRing()
		}
		return nil, fmt.Errorf("%w: %s then %s unreachable: %v", ErrBackendUnavailable, m.name, m2.name, err)
	}
	return resp, wrapTransportError(m2, err)
}

// wrapTransportError maps a post-accept transport failure (timeout,
// reset — the backend may have executed the session) onto
// ErrBackendUnavailable so the HTTP layer answers 502, not 400. Errors
// forward already classified (429/503/400 mappings) pass through.
func wrapTransportError(m *remoteMember, err error) error {
	var ue *url.Error
	if errors.As(err, &ue) {
		return fmt.Errorf("%w: %s: %v", ErrBackendUnavailable, m.name, err)
	}
	return err
}

// forward runs one proxied session attempt against one backend and maps
// the backend's answer onto the Backend contract's error vocabulary.
func (rb *RemoteBackend) forward(m *remoteMember, req *Request) (*Response, error) {
	select {
	case m.inflight <- struct{}{}:
	default:
		// The per-backend in-flight bound is the proxy's own backpressure:
		// it answers like a full queue rather than stacking more load onto
		// a backend already serving MaxInflight of our sessions.
		return nil, &RetryAfterError{Err: fmt.Errorf("backend %s in-flight bound reached: %w", m.name, ErrQueueFull), Seconds: 1}
	}
	defer func() { <-m.inflight }()

	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("%w: marshal request: %v", ErrBackendUnavailable, err)
	}
	hreq, err := http.NewRequest(http.MethodPost, m.url+"/sessions", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBackendUnavailable, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := m.client.Do(hreq)
	if err != nil {
		m.errored.Add(1)
		return nil, err // raw: Submit inspects it for the dial-vs-accepted split
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body) // drain for keep-alive reuse
		hresp.Body.Close()
	}()

	switch hresp.StatusCode {
	case http.StatusOK:
		var resp Response
		if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
			m.errored.Add(1)
			return nil, fmt.Errorf("%w: %s returned undecodable response: %v", ErrBackendUnavailable, m.name, err)
		}
		resp.Backend = m.name
		m.proxied.Add(1)
		return &resp, nil
	case http.StatusTooManyRequests:
		// Honest propagation: the backend's own backoff guidance, not ours.
		return nil, &RetryAfterError{
			Err:     fmt.Errorf("backend %s: %w", m.name, ErrQueueFull),
			Seconds: parseRetryAfter(hresp.Header.Get("Retry-After"), 1),
		}
	case http.StatusServiceUnavailable:
		err := fmt.Errorf("backend %s: %w", m.name, ErrDraining)
		if secs := parseRetryAfter(hresp.Header.Get("Retry-After"), 0); secs > 0 {
			return nil, &RetryAfterError{Err: err, Seconds: secs}
		}
		return nil, err
	case http.StatusBadRequest:
		var eb errorBody
		if json.NewDecoder(hresp.Body).Decode(&eb) == nil && eb.Error != "" {
			return nil, fmt.Errorf("backend %s: %s", m.name, eb.Error)
		}
		return nil, fmt.Errorf("backend %s rejected the request", m.name)
	default:
		m.errored.Add(1)
		return nil, fmt.Errorf("%w: %s answered %d", ErrBackendUnavailable, m.name, hresp.StatusCode)
	}
}

// isConnectError reports whether the proxied request failed before the
// backend could have accepted it — a dial-phase failure. Only these are
// safe to retry; anything after the connection was established may have
// reached a handler.
func isConnectError(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) {
		return op.Op == "dial"
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

func parseRetryAfter(v string, def int) int {
	if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n > 0 {
		return n
	}
	return def
}

// Draining implements Backend.
func (rb *RemoteBackend) Draining() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.draining
}

// Close stops admitting sessions and shuts the health sweep down.
// Sessions already in flight on backend processes complete there; the
// front-end holds no session state to drain.
func (rb *RemoteBackend) Close() {
	rb.mu.Lock()
	rb.draining = true
	rb.mu.Unlock()
	rb.stopOnce.Do(func() { close(rb.quit) })
	rb.wg.Wait()
	for _, m := range rb.members {
		m.client.CloseIdleConnections()
	}
}
