package service

import (
	"encoding/base64"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"giantsan/internal/bench"
	"giantsan/internal/canary"
	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/lfp"
	"giantsan/internal/parallel"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/trace"
	"giantsan/internal/workload"
)

// Admission errors. The HTTP layer maps them to status codes (429, 503);
// every other Submit error is a malformed request (400).
var (
	// ErrQueueFull is returned when the bounded admission queue refuses a
	// session — the backpressure signal.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining is returned once Close has begun: the server finishes
	// queued sessions but admits no new ones.
	ErrDraining = errors.New("service: draining, not accepting sessions")
	// ErrNoBackends is returned by a federating front-end when every
	// configured backend is down or draining — there is nowhere to route.
	ErrNoBackends = errors.New("service: no healthy backends")
	// ErrBackendUnavailable is returned by a federating front-end when the
	// routed backend failed mid-session (or returned garbage) and the
	// session cannot be safely retried. The HTTP layer maps it to 502.
	ErrBackendUnavailable = errors.New("service: backend unavailable")
)

// RetryAfterError decorates an admission error (ErrQueueFull, and on the
// federated path ErrDraining) with backoff guidance in whole seconds: the
// engine derives it from its current queue depth and measured per-session
// service time, and a federating front-end propagates the backend's own
// header instead of inventing one. errors.Is still matches the wrapped
// sentinel.
type RetryAfterError struct {
	Err     error
	Seconds int
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %ds)", e.Err, e.Seconds)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// retryAfterIn extracts backoff guidance from an admission error chain,
// or returns def when none was attached.
func retryAfterIn(err error, def int) int {
	var ra *RetryAfterError
	if errors.As(err, &ra) && ra.Seconds > 0 {
		return ra.Seconds
	}
	return def
}

// Session statuses.
const (
	// StatusOK is a session that ran to completion within its deadline.
	// Memory-error reports do NOT make a session fail: finding errors is
	// the service's product, so they ride on an "ok" session.
	StatusOK = "ok"
	// StatusTimeout is a session whose virtual-clock bill exceeded its
	// deadline.
	StatusTimeout = "timeout"
	// StatusError is a session that could not run (bad workload, broken
	// trace, panic): the Message field says why.
	StatusError = "error"
)

// Request is the session request schema (the POST /sessions body).
// Exactly one of Workload and TraceB64 must be set.
type Request struct {
	// Workload is a SPEC-like workload ID (see workload.All / GET
	// /workloads) to execute.
	Workload string `json:"workload,omitempty"`
	// TraceB64 is a standard-base64-encoded memory-operation trace (the
	// gsan -record format) to replay instead of running a workload.
	TraceB64 string `json:"trace_b64,omitempty"`
	// Sanitizer selects the configuration by label: native, giantsan,
	// asan, asan--, lfp, cacheonly, elimonly, plus the tier-only
	// configurations fullcheck and sampled8. Empty means giantsan (unless
	// Tier is set). Mutually exclusive with Tier.
	Sanitizer string `json:"sanitizer,omitempty"`
	// Tier requests a rung of the adaptive sanitization ladder (full,
	// elim, cheap, sampled — see bench.Tiers) instead of pinning an exact
	// sanitizer. A tiered session consents to degradation: under load the
	// admission controller may resolve it to a cheaper rung rather than
	// reject it, and only rejects (429) when even the cheapest rung has no
	// queue capacity. Mutually exclusive with Sanitizer.
	Tier string `json:"tier,omitempty"`
	// Scale is the workload scale factor (>= 1; 0 means 1).
	Scale int `json:"scale,omitempty"`
	// DeadlineNs is the session's virtual-clock budget in nanoseconds.
	// Virtual time is the deterministic cost model of the bench engine
	// (accesses, checks, shadow traffic), so deadline enforcement is
	// reproducible across machines and interleavings. 0 means the
	// engine's default; < 0 is rejected.
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
	// Tenant is the session's placement identity on a federation
	// front-end: all sessions of one tenant consistently hash to the same
	// backend process (and so share its arena pool and queue). Empty falls
	// back to the workload ID, then the trace body. An engine that runs
	// the session itself ignores it.
	Tenant string `json:"tenant,omitempty"`

	// Resolved request state, filled by validate and resolveTier; never on
	// the wire.
	requestedTier string
	resolvedTier  string
	downgraded    bool
	heapBytes     uint64
}

// Response is one session's outcome (the POST /sessions reply).
type Response struct {
	Session   uint64 `json:"session"`
	Status    string `json:"status"`
	Sanitizer string `json:"sanitizer"`
	// Tier is the rung the session actually ran at; RequestedTier what the
	// client asked for; Downgraded whether admission control moved the
	// session down the ladder. All empty/false for non-tiered requests.
	Tier          string `json:"tier,omitempty"`
	RequestedTier string `json:"requested_tier,omitempty"`
	Downgraded    bool   `json:"downgraded,omitempty"`
	Workload      string `json:"workload,omitempty"`
	// Arena says how the execution environment was obtained: "warm" (from
	// the pool), "cold" (freshly built), or "unpooled" (LFP, whose
	// allocator-is-the-metadata runtime is not recyclable).
	Arena string `json:"arena"`
	// Backend is the federation backend that executed the session, stamped
	// by the federating front-end. Empty when the serving process executed
	// the session itself.
	Backend string `json:"backend,omitempty"`
	// VirtualNs is the session's deterministic virtual-clock bill;
	// WallNs the wall time the run took on this machine.
	VirtualNs  int64 `json:"virtual_ns"`
	WallNs     int64 `json:"wall_ns"`
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
	// Events is the number of replayed trace events (replay sessions).
	Events int `json:"events,omitempty"`
	// Checksum is the workload's value digest, hex-encoded (64-bit values
	// do not survive JSON numbers intact).
	Checksum string `json:"checksum,omitempty"`
	// Stats is the sanitizer work the session performed.
	Stats san.Stats `json:"stats"`
	// ErrorTotal counts every memory-error report the session raised;
	// Errors renders the first few.
	ErrorTotal int      `json:"error_total"`
	Errors     []string `json:"errors,omitempty"`
	// Message explains StatusError.
	Message string `json:"message,omitempty"`
}

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of concurrent session executors; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the admission queue (sessions accepted but not
	// yet executing); <= 0 means 64. Overflow is rejected with
	// ErrQueueFull, not queued unboundedly — bounded memory beats
	// unbounded latency under overload.
	QueueDepth int
	// ArenasPerKey bounds idle pooled arenas per runtime configuration;
	// <= 0 means Workers (the most that can be in flight at once).
	ArenasPerKey int
	// ReplayHeapBytes sizes the heap for trace-replay sessions; 0 means
	// 64 MiB (the gsan -replay default).
	ReplayHeapBytes uint64
	// MaxHeapBytes caps a workload session's scaled heap (HeapBytes ×
	// Scale); requests above it are rejected as malformed. 0 means 4 GiB.
	MaxHeapBytes uint64
	// TierBudgetNs is the per-session virtual-clock budget the tier
	// controller steers toward: when the rolling mean bill of the last
	// TierWindow sessions exceeds it, tiered sessions are downgraded one
	// extra rung per multiple of the budget. 0 disables budget-driven
	// downgrades (queue-driven ones still apply).
	TierBudgetNs int64
	// TierWindow is the rolling-window length (completed sessions) the
	// budget controller averages over; <= 0 means 32.
	TierWindow int
	// DefaultDeadlineNs applies to requests that do not set a deadline;
	// 0 means no deadline.
	DefaultDeadlineNs int64
	// OnSessionStart, when non-nil, runs on the worker goroutine before
	// each session executes — an observability hook (and the lever the
	// panic-isolation tests use).
	OnSessionStart func(*Request)

	// CanaryEnabled turns on the always-on differential validation
	// canary: a background tenant that continuously generates mini
	// programs, triple-replays their traces (fast path, reference path,
	// byte-granular oracle) in spare worker capacity, and diffs
	// everything the legs observe (see internal/canary). Discrepancies
	// are ddmin-shrunk to a 1-minimal trace and surfaced via the
	// gsan_canary_* metric families.
	CanaryEnabled bool
	// CanaryDir is where divergence artifacts (shrunk trace + JSON
	// description) are persisted; empty keeps them in memory only.
	CanaryDir string
	// CanaryPlant injects a named fast-path mutation into the canary's
	// fast leg (test/CI seam; see canary.PlantNames). Validate with
	// canary.PlantByName before constructing the engine: New panics on
	// an unknown name.
	CanaryPlant string
	// CanaryMaxQueue is the spare-capacity admission threshold: a canary
	// run is only submitted while the session queue depth is at or below
	// it, so the canary never competes with real tenants. 0 (the
	// default) admits canary runs only when the queue is empty.
	CanaryMaxQueue int
	// CanaryInterval is the pacing between canary run attempts; <= 0
	// means 25ms. At most one canary run is in flight at a time.
	CanaryInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ArenasPerKey <= 0 {
		c.ArenasPerKey = c.Workers
	}
	if c.ReplayHeapBytes == 0 {
		c.ReplayHeapBytes = 64 << 20
	}
	if c.MaxHeapBytes == 0 {
		c.MaxHeapBytes = 4 << 30
	}
	if c.TierWindow <= 0 {
		c.TierWindow = 32
	}
	if c.CanaryInterval <= 0 {
		c.CanaryInterval = 25 * time.Millisecond
	}
	return c
}

// counters is the service-level metric set, updated atomically from
// worker goroutines and read by /metrics.
type counters struct {
	started    atomic.Uint64
	completed  atomic.Uint64
	rejected   atomic.Uint64
	timedout   atomic.Uint64
	panicked   atomic.Uint64
	downgraded atomic.Uint64
}

// Engine is the multi-tenant session engine: a bounded admission queue in
// front of a persistent worker pool, executing each session in a pooled
// (or fresh) arena with panic isolation.
type Engine struct {
	cfg    Config
	pool   *parallel.Pool
	arenas *rt.Pool
	m      counters
	nextID atomic.Uint64

	// Canary state, nil/zero when CanaryEnabled is false. The loop
	// goroutine paces run attempts; skipped counts attempts that found
	// no spare capacity (queue above CanaryMaxQueue or no slot).
	canary        *canary.Canary
	canarySkipped atomic.Uint64
	canaryQuit    chan struct{}
	canaryStop    sync.Once
	canaryWG      sync.WaitGroup

	// prepare is the session compiler, interp.Prepare in production. It is
	// a field so tests can inject compilation failures and panics at the
	// exact point where a pooled arena is already held.
	prepare func(*ir.Prog, instrument.Profile, rt.Runtime) (*interp.Exec, error)

	// mu guards the aggregated per-sanitizer stats, the per-tier session
	// counts, the per-kind error report totals, the budget controller's
	// rolling window, and the draining flag.
	mu       sync.Mutex
	perSan   map[string]*san.Stats
	perTier  map[string]uint64
	errKinds map[string]uint64
	draining bool

	// Rolling windows of the last TierWindow completed sessions' virtual
	// and wall bills, ring buffers sharing one cursor: the budget
	// controller downgrades against the virtual mean, and Retry-After
	// guidance is derived from the wall mean (virtual time is a portable
	// cost model; a client backing off waits in wall time).
	window     []int64
	windowSum  int64
	wallWindow []int64
	wallSum    int64
	windowPos  int
	windowN    int
}

// New starts an engine per cfg. Callers must Close it to drain.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		pool:     parallel.NewPool(cfg.Workers, cfg.QueueDepth),
		arenas:   rt.NewPool(cfg.ArenasPerKey),
		prepare:  interp.Prepare,
		perSan:   make(map[string]*san.Stats),
		perTier:  make(map[string]uint64),
		errKinds: make(map[string]uint64),
	}
	if cfg.CanaryEnabled {
		c, err := canary.New(canary.Config{Dir: cfg.CanaryDir, Plant: cfg.CanaryPlant})
		if err != nil {
			// The only failure is an unknown plant name; callers validate
			// with canary.PlantByName, so this is a programming error.
			panic(err)
		}
		e.canary = c
		e.canaryQuit = make(chan struct{})
		e.canaryWG.Add(1)
		go e.canaryLoop()
	}
	return e
}

// canaryLoop paces canary runs into spare worker capacity: one attempt
// per CanaryInterval, admitted only while the session queue is at or
// below CanaryMaxQueue, at most one run in flight. Canary runs ride the
// same worker pool as sessions but bypass every session counter and
// aggregate — they are the service testing itself, not tenant work.
func (e *Engine) canaryLoop() {
	defer e.canaryWG.Done()
	tick := time.NewTicker(e.cfg.CanaryInterval)
	defer tick.Stop()
	for {
		select {
		case <-e.canaryQuit:
			return
		case <-tick.C:
		}
		if e.pool.QueueDepth() > e.cfg.CanaryMaxQueue {
			e.canarySkipped.Add(1)
			continue
		}
		done := make(chan struct{})
		if !e.pool.TrySubmit(func() { defer close(done); e.canary.RunNext() }) {
			e.canarySkipped.Add(1)
			continue
		}
		select {
		case <-done:
		case <-e.canaryQuit:
			// Draining: the submitted run still executes before
			// pool.Close returns; just stop pacing new ones.
			return
		}
	}
}

// CanarySnapshot returns the canary's lifetime counters and whether the
// canary is enabled.
func (e *Engine) CanarySnapshot() (canary.Counters, bool) {
	if e.canary == nil {
		return canary.Counters{}, false
	}
	return e.canary.Snapshot(), true
}

// Close begins the graceful drain: no new sessions are admitted, the
// canary loop stops pacing, queued and running work finishes, then Close
// returns. Safe to call twice.
func (e *Engine) Close() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	if e.canaryQuit != nil {
		e.canaryStop.Do(func() { close(e.canaryQuit) })
	}
	e.pool.Close()
	e.canaryWG.Wait()
}

// tierIndex resolves a tier name to its ladder index, or -1.
func tierIndex(name string) int {
	for i, tr := range bench.Tiers() {
		if tr.Name == name {
			return i
		}
	}
	return -1
}

// tierFloor is the admission controller's load signal: the cheapest
// ladder index a tiered session may currently run above. Queue pressure
// contributes stepwise (a quarter-full queue costs one rung, half-full
// two, three-quarters three); the virtual-clock budget contributes one
// rung per multiple of TierBudgetNs the rolling mean session bill sits
// at. The floor saturates at the cheapest rung — a session is never
// rejected while the queue can still hold it.
func (e *Engine) tierFloor() int {
	steps := 0
	d, c := e.pool.QueueDepth(), e.cfg.QueueDepth
	switch {
	case 4*d >= 3*c:
		steps = 3
	case 2*d >= c:
		steps = 2
	case 4*d >= c:
		steps = 1
	}
	if b := e.cfg.TierBudgetNs; b > 0 {
		e.mu.Lock()
		if e.windowN > 0 {
			steps += int(e.windowSum / int64(e.windowN) / b)
		}
		e.mu.Unlock()
	}
	if max := len(bench.Tiers()) - 1; steps > max {
		steps = max
	}
	return steps
}

// resolveTier maps a tiered request onto a concrete sanitizer at
// admission time: the requested rung, or the load floor if that is
// cheaper. Pinned-sanitizer requests pass through untouched.
func (e *Engine) resolveTier(req *Request) {
	if req.requestedTier == "" {
		return
	}
	idx := tierIndex(req.requestedTier)
	if floor := e.tierFloor(); floor > idx {
		idx = floor
	}
	tr := bench.Tiers()[idx]
	req.resolvedTier = tr.Name
	req.downgraded = tr.Name != req.requestedTier
	req.Sanitizer = tr.Config.Label
}

// validate normalizes req in place and rejects malformed requests. It is
// called on the submitter's goroutine so schema errors never consume a
// queue slot.
func (e *Engine) validate(req *Request) error {
	switch {
	case req.Tier != "":
		if req.Sanitizer != "" {
			return errors.New("tier and sanitizer are mutually exclusive")
		}
		if tierIndex(req.Tier) < 0 {
			return fmt.Errorf("unknown tier %q (ladder: full, elim, cheap, sampled)", req.Tier)
		}
		// The concrete sanitizer is chosen at admission time by
		// resolveTier, against the load at that instant.
		req.requestedTier = req.Tier
	case req.Sanitizer == "":
		req.Sanitizer = "giantsan"
	}
	if req.Tier == "" && bench.ConfigByLabel(req.Sanitizer) == nil {
		return fmt.Errorf("unknown sanitizer %q", req.Sanitizer)
	}
	if (req.Workload == "") == (req.TraceB64 == "") {
		return errors.New("exactly one of workload and trace_b64 must be set")
	}
	if req.Scale < 0 {
		return fmt.Errorf("scale %d must be >= 1", req.Scale)
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if req.Workload != "" {
		w := workload.ByID(req.Workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q (see GET /workloads)", req.Workload)
		}
		// Scale multiplies the heap. Check the multiply itself — a wrapped
		// product can otherwise masquerade as a tiny (even zero-byte)
		// arena — then the configured cap.
		heap := w.HeapBytes * uint64(req.Scale)
		if heap/uint64(req.Scale) != w.HeapBytes {
			return fmt.Errorf("workload %q at scale %d: heap size overflows", req.Workload, req.Scale)
		}
		if heap > e.cfg.MaxHeapBytes {
			return fmt.Errorf("workload %q at scale %d needs %d heap bytes, above the %d-byte cap",
				req.Workload, req.Scale, heap, e.cfg.MaxHeapBytes)
		}
		req.heapBytes = heap
	}
	if req.DeadlineNs < 0 {
		return fmt.Errorf("deadline_ns %d must be >= 0", req.DeadlineNs)
	}
	if req.DeadlineNs == 0 {
		req.DeadlineNs = e.cfg.DefaultDeadlineNs
	}
	return nil
}

// Submit admits one session and blocks until its response is ready.
// Validation errors come back directly; ErrQueueFull and ErrDraining are
// the admission-control outcomes.
func (e *Engine) Submit(req Request) (*Response, error) {
	if err := e.validate(&req); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	e.mu.Unlock()
	// Tier resolution happens here, against the queue the session is about
	// to join: under load a tiered session is degraded to a cheaper rung
	// instead of rejected. Only when even the cheapest rung has no queue
	// slot does admission fall back to ErrQueueFull.
	e.resolveTier(&req)
	done := make(chan *Response, 1)
	ok := e.pool.TrySubmit(func() { done <- e.runSession(&req) })
	if !ok {
		e.m.rejected.Add(1)
		return nil, &RetryAfterError{Err: ErrQueueFull, Seconds: e.retryAfterSeconds()}
	}
	return <-done, nil
}

// Draining reports whether Close has begun: the engine finishes queued
// sessions but admits no new ones. The health endpoint exposes it so
// routers stop sending doomed sessions during the drain window.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// QueueDepth returns the number of admitted sessions not yet executing.
func (e *Engine) QueueDepth() int { return e.pool.QueueDepth() }

// ArenaStats exposes the arena pool counters.
func (e *Engine) ArenaStats() ArenaStats { return e.arenas.Stats() }

// runSession executes one session on a worker goroutine. Panic isolation
// lives here: whatever a poisoned session does, the worker survives, the
// panicking session's arena is dropped (never returned to the pool, but
// counted — see rt.Pool.Drop), and the tenant gets a StatusError
// response instead of taking the server down with it. A panicked session
// still completes: it passes through finish like any other, so the
// started == completed + in-flight invariant holds whatever tenants do.
func (e *Engine) runSession(req *Request) (resp *Response) {
	id := e.nextID.Add(1)
	e.m.started.Add(1)
	// arena tracks how far the session got: "none" until an execution
	// environment exists, then the real pool outcome. The recovery path
	// reports it instead of guessing.
	arena := "none"
	defer func() {
		if v := recover(); v != nil {
			e.m.panicked.Add(1)
			resp = errorResponse(id, req, arena,
				fmt.Sprintf("session panic (isolated): %v", v))
			e.finish(req, resp)
		}
	}()
	if hook := e.cfg.OnSessionStart; hook != nil {
		hook(req)
	}
	if req.TraceB64 != "" {
		resp = e.runReplay(id, req, &arena)
	} else {
		resp = e.runWorkload(id, req, &arena)
	}
	e.finish(req, resp)
	return resp
}

// finish stamps tier resolution onto the response, applies deadline
// classification, and folds the session's work into the service-wide
// aggregates (per-sanitizer stats, per-tier counts, the budget
// controller's rolling window).
func (e *Engine) finish(req *Request, resp *Response) {
	resp.Tier = req.resolvedTier
	resp.RequestedTier = req.requestedTier
	resp.Downgraded = req.downgraded
	if req.downgraded {
		// Counted here, not at resolution: a session the queue then
		// rejects anyway shows up as rejected, not downgraded.
		e.m.downgraded.Add(1)
	}
	if resp.Status == StatusOK && resp.DeadlineNs > 0 && resp.VirtualNs > resp.DeadlineNs {
		resp.Status = StatusTimeout
		e.m.timedout.Add(1)
	}
	e.m.completed.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	agg := e.perSan[resp.Sanitizer]
	if agg == nil {
		agg = &san.Stats{}
		e.perSan[resp.Sanitizer] = agg
	}
	agg.Add(&resp.Stats)
	if req.resolvedTier != "" {
		e.perTier[req.resolvedTier]++
	}
	if e.window == nil {
		e.window = make([]int64, e.cfg.TierWindow)
		e.wallWindow = make([]int64, e.cfg.TierWindow)
	}
	if e.windowN == len(e.window) {
		e.windowSum -= e.window[e.windowPos]
		e.wallSum -= e.wallWindow[e.windowPos]
	} else {
		e.windowN++
	}
	e.window[e.windowPos] = resp.VirtualNs
	e.windowSum += resp.VirtualNs
	e.wallWindow[e.windowPos] = resp.WallNs
	e.wallSum += resp.WallNs
	e.windowPos = (e.windowPos + 1) % len(e.window)
}

// retryAfterSeconds is the backoff the engine attaches to a queue-full
// rejection: the time the current backlog needs to drain at the measured
// mean wall-clock service time, spread over the workers — so federated
// clients (and the front-end proxy relaying the header) back off in
// proportion to how overloaded this process actually is, instead of
// hammering a fixed one-second cadence. With no completed-session history
// yet, a nominal per-session estimate stands in. Clamped to [1, 60]s.
func (e *Engine) retryAfterSeconds() int {
	depth := e.pool.QueueDepth()
	e.mu.Lock()
	var meanWallNs int64
	if e.windowN > 0 {
		meanWallNs = e.wallSum / int64(e.windowN)
	}
	e.mu.Unlock()
	if meanWallNs <= 0 {
		meanWallNs = int64(50 * time.Millisecond)
	}
	drainNs := (int64(depth) + 1) * meanWallNs / int64(e.cfg.Workers)
	secs := int((drainNs + int64(time.Second) - 1) / int64(time.Second))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// recordErrors renders the session's error reports into resp and feeds
// the per-kind service totals.
func (e *Engine) recordErrors(resp *Response, log *report.Log) {
	resp.ErrorTotal = log.Total()
	for i, err := range log.Errors {
		if i >= 10 {
			break
		}
		resp.Errors = append(resp.Errors, err.Error())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, err := range log.Errors {
		e.errKinds[err.Kind.String()]++
	}
}

// errorResponse builds a StatusError reply.
func errorResponse(id uint64, req *Request, arena, msg string) *Response {
	return &Response{
		Session: id, Status: StatusError, Sanitizer: req.Sanitizer,
		Workload: req.Workload, Arena: arena, Message: msg,
	}
}

// runWorkload executes a workload session: build, prepare and run the
// kernel on the environment runSource acquires. LFP gets twice the
// workload's heap, and a kernel Table 2 says LFP cannot run is refused
// before any environment is built.
func (e *Engine) runWorkload(id uint64, req *Request, arena *string) *Response {
	w := workload.ByID(req.Workload)
	if fail := bench.LFPFailure(w.ID); fail != "" && bench.ConfigByLabel(req.Sanitizer).IsLFP {
		*arena = "unpooled"
		return errorResponse(id, req, *arena, fmt.Sprintf("lfp cannot run %s (%s, Table 2)", w.ID, fail))
	}
	return e.runSource(id, req, arena, req.heapBytes, req.heapBytes*2,
		func(env rt.Runtime, prof instrument.Profile) (*Response, *report.Log, error) {
			ex, err := e.prepare(w.Build(req.Scale), prof, env)
			if err != nil {
				return nil, nil, untouchedError{fmt.Errorf("prepare: %v", err)}
			}
			start := time.Now()
			res := ex.Run()
			wall := time.Since(start)
			return &Response{
				VirtualNs: int64(bench.VirtualCost(res.Stats.Accesses, &res.San)),
				WallNs:    wall.Nanoseconds(),
				Checksum:  fmt.Sprintf("%#x", res.Checksum),
				Stats:     res.San,
			}, &res.Errors, nil
		})
}

// runReplay executes a trace-replay session: decode the base64 trace,
// then replay it on the environment runSource acquires, whose heap is
// ReplayHeapBytes under every sanitizer.
func (e *Engine) runReplay(id uint64, req *Request, arena *string) *Response {
	data, err := base64.StdEncoding.DecodeString(req.TraceB64)
	if err != nil {
		return errorResponse(id, req, *arena, fmt.Sprintf("trace_b64: %v", err))
	}
	return e.runSource(id, req, arena, e.cfg.ReplayHeapBytes, e.cfg.ReplayHeapBytes,
		func(env rt.Runtime, prof instrument.Profile) (*Response, *report.Log, error) {
			start := time.Now()
			res, err := trace.ReplayBytes(data, env, prof.Anchor)
			wall := time.Since(start)
			if err != nil {
				// A malformed trace leaves the arena's state valid (Replay
				// applies well-formed prefix operations only), but it is
				// dropped anyway: trace errors are rare and a fresh arena
				// is cheap insurance.
				return nil, nil, fmt.Errorf("replay: %v", err)
			}
			stats := env.San().Stats().Clone()
			return &Response{
				VirtualNs: int64(bench.VirtualCost(uint64(res.Events), stats)),
				WallNs:    wall.Nanoseconds(),
				Events:    res.Events,
				Stats:     *stats,
			}, &res.Errors, nil
		})
}

// untouchedError marks a session failure raised before the program
// touched its arena (a failed prepare): runSource shelves the arena, which
// Put resets regardless, instead of paying a rebuild.
type untouchedError struct{ error }

// runSource is the one session pipeline under runWorkload and runReplay.
// It acquires the execution environment for the request's sanitizer — a
// fresh LFP runtime of lfpHeapBytes ("unpooled") or a pooled arena of
// heapBytes ("warm" or "cold") — runs exec on it, and completes the
// response exec returns with the session's identity and error reports.
// Every exit path accounts for a pooled arena explicitly: Put back on the
// shelf after a run or an untouchedError, Dropped (counted) after any
// other error or a panic, so no path can silently leak an arena out of
// the pool's books.
func (e *Engine) runSource(id uint64, req *Request, arena *string, heapBytes, lfpHeapBytes uint64,
	exec func(env rt.Runtime, prof instrument.Profile) (*Response, *report.Log, error)) *Response {
	cfg := bench.ConfigByLabel(req.Sanitizer)
	var (
		env  rt.Runtime
		keep bool
	)
	*arena = "unpooled"
	if cfg.IsLFP {
		env = lfp.New(lfp.Config{HeapBytes: lfpHeapBytes, MaxClass: 1 << 20})
	} else {
		pooled, warm := e.arenas.Get(rt.Config{
			Kind: cfg.Kind, HeapBytes: heapBytes, Reference: cfg.Profile.Reference,
		})
		env = pooled
		*arena = "cold"
		if warm {
			*arena = "warm"
		}
		defer func() { e.arenas.Release(pooled, keep) }()
	}

	resp, log, err := exec(env, cfg.Profile)
	if err != nil {
		_, keep = err.(untouchedError)
		return errorResponse(id, req, *arena, err.Error())
	}
	keep = true
	resp.Session, resp.Status, resp.Sanitizer = id, StatusOK, req.Sanitizer
	resp.Workload, resp.Arena, resp.DeadlineNs = req.Workload, *arena, req.DeadlineNs
	e.recordErrors(resp, log)
	return resp
}
