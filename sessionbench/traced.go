package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"giantsan/internal/analysis"
	"giantsan/internal/bench"
	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/rt"
	"giantsan/internal/service"
	"giantsan/internal/trace"
	"giantsan/internal/workload"
)

// The traced run splits its seconds into three phases: an untraced closed
// loop (the baseline round trip and the Go runtime counters), a traced
// closed loop (outer spans: the client round trip, the handler middleware,
// the worker pickup mark), and a direct phase that replays the traced
// sessions through the session pipeline by calling each module's public
// function itself (inner spans).
//
// Inner spans have parent "session" when the step is on the session's
// path in the server, and parent "reference" when the step is a
// measurement off that path: native runs and kernel trace replays that
// split interpreter from sanitizer time on spec mixes, and the progen
// programs behind the traces on replay mixes.
//
// Attributing a traced session's window (worker pickup to handler end)
// takes the execute step, Exec.Run or trace.Replay, from the engine's own
// timing of it in the response (wall_ns), and every other step from the
// direct replay. The engine times execute where it ran, under the load
// and the GC of that moment, which a replay later cannot reproduce.

// replayHeapBytes is the engine's default replay arena (service.Config
// ReplayHeapBytes), which the benchmark's engines keep.
const replayHeapBytes = 64 << 20

// hopProbeSessions is how many sessions a traced run sends through a
// one-backend federating front-end to measure the proxy hop.
const hopProbeSessions = 32

// maxDirect bounds the sessions the direct phase replays, which keeps the
// span file of a replay mix to a few hundred thousand spans.
const maxDirect = 2000

// Where a step of the direct pipeline sits on the session's path.
const (
	admit     = iota // before worker pickup: the request decode
	window           // in the session window, outside the engine's wall_ns
	execute          // inside the engine's wall_ns
	reference        // off the session's path
)

// step is one timed call of the direct pipeline.
type step struct {
	name  string
	d     time.Duration
	where int
}

// direct is one session replayed through the pipeline.
type direct struct {
	rec      record
	steps    []step
	accesses uint64 // interpreter accesses of the run
	pages    int    // arena overlay pages dirtied by the session
	bytes    int    // and their bytes
}

func (d *direct) sum(name string) time.Duration { return sumSteps(d.steps, name) }

// windowSteps is the time of the steps in the session window that the
// engine's wall_ns does not cover.
func (d *direct) windowSteps() time.Duration {
	var t time.Duration
	for _, s := range d.steps {
		if s.where == window {
			t += s.d
		}
	}
	return t
}

// kindRef is a spec kernel's reference measurements.
type kindRef struct {
	run    time.Duration // Exec.Run under giantsan
	native time.Duration // Exec.Run under native
	decode time.Duration // base64 + trace.ReadAll of the kernel's trace
	replay time.Duration // trace.ReplayEvents of it under giantsan
	events int
}

// pipeline replays sessions through the public functions of the session
// path on its own arena pool.
type pipeline struct {
	pool *service.ArenaPool
	tr   *tracer
}

// timer records consecutive steps of one session as spans.
type timer struct {
	tr      *tracer
	session string
	t       time.Time
	steps   []step
}

func (p *pipeline) timer(session string) *timer {
	return &timer{tr: p.tr, session: session, t: time.Now()}
}

// lap ends the step that started at the last lap (or restart).
func (t *timer) lap(name string, where int) {
	now := time.Now()
	parent := "session"
	if where == reference {
		parent = "reference"
	}
	t.steps = append(t.steps, step{name, now.Sub(t.t), where})
	t.tr.add(name, t.session, parent, t.t, now)
	t.t = time.Now()
}

func (t *timer) restart() { t.t = time.Now() }

// arenaConfig is the arena-pool key the engine uses for a request.
func arenaConfig(req *service.Request) rt.Config {
	cfg := bench.ConfigByLabel(req.Sanitizer)
	heap := uint64(replayHeapBytes)
	if w := workload.ByID(req.Workload); w != nil {
		heap = w.HeapBytes
	}
	return rt.Config{Kind: cfg.Kind, HeapBytes: heap, Reference: cfg.Profile.Reference}
}

// coldGets times a first (cold) Get on the pool for every arena key of
// set, shelving each arena so that the direct phase only sees warm Gets.
func (p *pipeline) coldGets(set *inputSet) ([]float64, error) {
	seen := map[rt.Config]bool{}
	var ms []float64
	for _, in := range set.inputs {
		keys := []rt.Config{arenaConfig(&in.req)}
		if in.req.TraceB64 != "" {
			keys = append(keys, programArena)
		}
		for _, k := range keys {
			if seen[k.Normalize()] {
				continue
			}
			seen[k.Normalize()] = true
			t := time.Now()
			env, warm := p.pool.Get(k)
			d := time.Since(t)
			if warm {
				return nil, fmt.Errorf("first Get of %+v was warm", k)
			}
			p.tr.add("arena.cold_get", "cold", "reference", t, t.Add(d))
			ms = append(ms, float64(d)/1e6)
			p.pool.Put(env)
		}
	}
	return ms, nil
}

// session replays one traced session through the pipeline, checking its
// answer again.
func (p *pipeline) session(rec record) (*direct, error) {
	in := rec.in
	d := &direct{rec: rec}
	tm := p.timer(rec.session)
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(in.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	tm.lap("json.decode_req", admit)
	cfg := bench.ConfigByLabel(req.Sanitizer)
	key := arenaConfig(&req)
	if w := workload.ByID(req.Workload); w != nil {
		tm.restart()
		env, _ := p.pool.Get(key)
		tm.lap("arena.get", window)
		prog := w.Build(1)
		tm.lap("workload.build", window)
		facts := analysis.Analyze(prog)
		tm.lap("analysis.analyze", window)
		plan := instrument.Build(prog, cfg.Profile, facts)
		tm.lap("instrument.plan", window)
		ex, err := interp.Compile(prog, plan, facts, env)
		if err != nil {
			return nil, err
		}
		tm.lap("interp.compile", window)
		res := ex.Run()
		tm.lap("interp.run", execute)
		d.accesses = res.Stats.Accesses
		d.pages, d.bytes = env.OverlayStats()
		if got := fmt.Sprintf("%#x", res.Checksum); got != in.checksum {
			return nil, fmt.Errorf("direct %s: checksum %s, want %s", in.kind, got, in.checksum)
		}
		tm.restart()
		p.pool.Put(env)
		tm.lap("arena.put", window)
	} else {
		tm.restart()
		data, err := base64.StdEncoding.DecodeString(req.TraceB64)
		if err != nil {
			return nil, err
		}
		tm.lap("trace.base64", window)
		// The engine reads the trace inside trace.Replay, so inside wall_ns.
		events, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		tm.lap("trace.read", execute)
		env, _ := p.pool.Get(key)
		tm.lap("arena.get", window)
		rr, err := trace.ReplayEvents(events, env, cfg.Profile.Anchor)
		if err != nil {
			return nil, err
		}
		tm.lap("trace.replay", execute)
		d.pages, d.bytes = env.OverlayStats()
		if n := rr.Errors.Total(); (n > 0) != in.buggy {
			return nil, fmt.Errorf("direct replay of seed %d: %d reports, buggy=%v", in.progSeed, n, in.buggy)
		}
		tm.restart()
		p.pool.Put(env)
		tm.lap("arena.put", window)
	}
	var buf bytes.Buffer
	tm.restart()
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ") // as the server's writeJSON does
	if err := enc.Encode(rec.resp); err != nil {
		return nil, err
	}
	tm.lap("json.encode_resp", window)
	if in.req.TraceB64 != "" {
		if err := p.programRef(tm, d); err != nil {
			return nil, err
		}
	}
	d.steps = tm.steps
	return d, nil
}

// programRef measures the progen program behind a replay's trace: its
// build, compilation, and runs under giantsan and native. None of it is on
// the replay session's path.
func (p *pipeline) programRef(tm *timer, d *direct) error {
	tm.restart()
	prog := progFor(d.rec.in)
	tm.lap("workload.build", reference)
	facts := analysis.Analyze(prog)
	tm.lap("analysis.analyze", reference)
	for _, prof := range []instrument.Profile{instrument.GiantSanProfile, instrument.Native} {
		tm.restart()
		plan := instrument.Build(prog, prof, facts)
		if prof.Name != instrument.Native.Name {
			tm.lap("instrument.plan", reference)
		}
		env, _ := p.pool.Get(programArena)
		tm.restart()
		ex, err := interp.Compile(prog, plan, facts, env)
		if err != nil {
			return err
		}
		if prof.Name == instrument.Native.Name {
			tm.restart()
			ex.Run()
		} else {
			tm.lap("interp.compile", reference)
			d.accesses = ex.Run().Stats.Accesses
		}
		tm.lap(runStep(prof), reference)
		p.pool.Put(env)
	}
	return nil
}

// kernelRef measures a spec kernel off the session path: Run under
// giantsan and under native, alternating, the mean of three each, and a
// replay of a trace recorded from the kernel under giantsan, which is the
// sanitizer's and runtime's work without the interpreter.
func (p *pipeline) kernelRef(id string) (*kindRef, error) {
	w := workload.ByID(id)
	session := "ref-" + id
	tm := p.timer(session)
	ref := &kindRef{}
	key := rt.Config{Kind: rt.GiantSan, HeapBytes: w.HeapBytes}
	for i := 0; i < 3; i++ {
		for _, prof := range []instrument.Profile{instrument.GiantSanProfile, instrument.Native} {
			env, _ := p.pool.Get(key)
			ex, err := interp.Prepare(w.Build(1), prof, env)
			if err != nil {
				return nil, err
			}
			tm.restart()
			ex.Run()
			tm.lap(runStep(prof), reference)
			p.pool.Put(env)
		}
	}
	ref.run = sumSteps(tm.steps, "interp.run") / 3
	ref.native = sumSteps(tm.steps, "interp.run_native") / 3

	env, _ := p.pool.Get(key)
	data, _, err := recordTrace(w.Build(1), instrument.GiantSanProfile, env) // resets env
	p.pool.Put(env)
	if err != nil {
		return nil, err
	}
	b64 := base64.StdEncoding.EncodeToString(data)
	data = nil
	tm.restart()
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, err
	}
	events, err := trace.ReadAll(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	tm.lap("trace.decode", reference)
	ref.decode = sumSteps(tm.steps, "trace.decode")
	env, _ = p.pool.Get(key)
	tm.restart()
	if _, err := trace.ReplayEvents(events, env, instrument.GiantSanProfile.Anchor); err != nil {
		return nil, err
	}
	tm.lap("trace.replay", reference)
	p.pool.Put(env)
	ref.replay = sumSteps(tm.steps, "trace.replay")
	ref.events = len(events)
	return ref, nil
}

// runStep names the step of an Exec.Run under prof.
func runStep(prof instrument.Profile) string {
	if prof.Name == instrument.Native.Name {
		return "interp.run_native"
	}
	return "interp.run"
}

func sumSteps(steps []step, name string) time.Duration {
	var t time.Duration
	for _, s := range steps {
		if s.name == name {
			t += s.d
		}
	}
	return t
}

// outer is one traced session's server-side timing, from its spans.
type outer struct {
	rtt, handler, admit, window time.Duration
}

// runTraced is the --trace 1 measurement; see the comment at the top of
// this file.
func runTraced(m mix, set *inputSet, dur time.Duration, spansPath string, w io.Writer) (*result, error) {
	h := &hooks{}
	top, err := startTopology(h)
	if err != nil {
		return nil, err
	}
	defer top.close()
	clients, pos := warm(top.url, set)
	defer closeClients(clients)
	phase := dur / 3

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := drive(top.url, set, clients, pos, phase, nil)
	runtime.ReadMemStats(&ms1)

	tr := newTracer()
	arena0 := top.eng.ArenaStats()
	h.tr.Store(tr)
	traced := drive(top.url, set, clients, pos, phase, tr)
	bySession := indexSpans(tr)
	fedCounts, err := probeHop(top, h, set)
	if err != nil {
		return nil, err
	}
	h.tr.Store(nil)
	arena1 := top.eng.ArenaStats()
	var metrics bytes.Buffer
	top.eng.WriteMetrics(&metrics)
	rejected := promValue(metrics.String(), "gsan_sessions_rejected_total")

	res := newResult(base.attempted+traced.attempted, base.failed+traced.failed,
		append(base.reasons, traced.reasons...))
	if res.out.Failed > 0 || len(traced.records) == 0 {
		return res, nil
	}
	recs := traced.records
	sort.Slice(recs, func(i, j int) bool {
		return bySession[recs[i].session]["round_trip"].StartNs < bySession[recs[j].session]["round_trip"].StartNs
	})
	outers := map[string]outer{}
	for _, r := range recs {
		o, err := outerOf(bySession[r.session])
		if err != nil {
			return nil, fmt.Errorf("session %s: %w", r.session, err)
		}
		outers[r.session] = o
	}

	// The direct phase.
	p := &pipeline{pool: service.NewArenaPool(1), tr: tr}
	coldMs, err := p.coldGets(set)
	if err != nil {
		return nil, err
	}
	var directs []*direct
	stop := time.Now().Add(phase)
	for _, r := range recs {
		if len(directs) == maxDirect || (time.Now().After(stop) && len(directs) > 0) {
			break
		}
		d, err := p.session(r)
		if err != nil {
			return nil, fmt.Errorf("direct replay of %s: %w", r.session, err)
		}
		directs = append(directs, d)
	}
	refs := map[string]*kindRef{}
	for _, id := range m.kernels {
		if refs[id], err = p.kernelRef(id); err != nil {
			return nil, fmt.Errorf("reference runs of %s: %w", id, err)
		}
		runtime.GC() // a kernel trace holds millions of events
	}

	if err := writeSpans(spansPath, tr, bySession); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans %s (%d spans)\n", spansPath, len(tr.spans))
	layerMetrics(res, m, layerInputs{
		base: base, traced: traced, outers: outers, directs: directs, refs: refs,
		coldMs: coldMs, arena0: arena0, arena1: arena1, rejected: rejected, fed: fedCounts,
		ms0: &ms0, ms1: &ms1,
	}, w)
	return res, nil
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	base, traced   loadResult
	outers         map[string]outer
	directs        []*direct
	refs           map[string]*kindRef
	coldMs         []float64
	arena0, arena1 service.ArenaStats
	rejected       float64
	fed            map[string]float64
	ms0, ms1       *runtime.MemStats
}

// layerMetrics sets every per-layer metric on res and prints the detail
// (self times, per-kind virtual-clock ratios, the coverage remainder).
func layerMetrics(res *result, m mix, li layerInputs, w io.Writer) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	recs := li.traced.records
	n := float64(len(recs))
	var sumOuter outer
	var reqBytes, respBytes float64
	for _, r := range recs {
		o := li.outers[r.session]
		sumOuter.rtt += o.rtt
		sumOuter.handler += o.handler
		sumOuter.admit += o.admit
		sumOuter.window += o.window
		reqBytes += float64(r.reqBytes)
		respBytes += float64(r.respBytes)
	}
	meanOuter := func(d time.Duration) float64 { return us(d) / n }

	// Direct-phase means per session.
	nd := float64(len(li.directs))
	meanStep := func(name string) float64 {
		var t time.Duration
		for _, d := range li.directs {
			t += d.sum(name)
		}
		return us(t) / nd
	}
	// runNs is the interpreter run as it happened: the engine's wall_ns on
	// a spec mix, the reference run of the progen program on a replay mix.
	// refRunNs and nativeNs are runs under giantsan and native made back
	// to back, so that the machine's speed is the same for both.
	var accesses, pages, kb float64
	var runNs, refRunNs, nativeNs float64
	var refDecode, refReplay, refEvents float64
	for _, d := range li.directs {
		pages += float64(d.pages)
		kb += float64(d.bytes) / 1024
		accesses += float64(d.accesses)
		if ref := li.refs[d.rec.in.kind]; ref != nil {
			runNs += float64(d.rec.resp.WallNs)
			refRunNs += float64(ref.run)
			nativeNs += float64(ref.native)
			refDecode += us(ref.decode)
			refReplay += us(ref.replay)
			refEvents += float64(ref.events)
		} else {
			runNs += float64(d.sum("interp.run"))
			refRunNs += float64(d.sum("interp.run"))
			nativeNs += float64(d.sum("interp.run_native"))
		}
	}
	decodeReq := meanStep("json.decode_req")

	res.set("service.transport_us", meanOuter(sumOuter.rtt-sumOuter.handler), "us")
	res.set("service.handler_us", meanOuter(sumOuter.handler), "us")
	res.set("service.req_bytes", reqBytes/n, "bytes")
	res.set("service.resp_bytes", respBytes/n, "bytes")
	res.set("json.decode_req_us", decodeReq, "us")
	res.set("json.encode_resp_us", meanStep("json.encode_resp"), "us")
	res.set("service.queue_wait_us", meanOuter(sumOuter.admit)-decodeReq, "us")
	res.set("service.session_us", meanOuter(sumOuter.window), "us")
	res.set("service.rejected", li.rejected, "count")

	res.set("arena.get_us", meanStep("arena.get"), "us")
	res.set("arena.put_us", meanStep("arena.put"), "us")
	hits, misses := li.arena1.Hits-li.arena0.Hits, li.arena1.Misses-li.arena0.Misses
	res.set("arena.hit_ratio", ratio(float64(hits), float64(hits+misses)), "frac")
	res.set("arena.cold_ms", mean(li.coldMs), "ms")
	res.set("arena.dirty_pages", pages/nd, "count")
	res.set("arena.shadow_kb", kb/nd, "KiB")

	res.set("workload.build_us", meanStep("workload.build"), "us")
	res.set("analysis.analyze_us", meanStep("analysis.analyze"), "us")
	res.set("instrument.plan_us", meanStep("instrument.plan"), "us")
	res.set("interp.compile_us", meanStep("interp.compile"), "us")
	res.set("interp.run_ms", runNs/nd/1e6, "ms")
	res.set("interp.run_native_ms", nativeNs/nd/1e6, "ms")
	res.set("interp.accesses", accesses/nd, "count")
	res.set("interp.ns_per_access", ratio(runNs, accesses), "ns")

	var st struct{ checks, loads, stores, hits, refills, ranges, fast, slow, errs float64 }
	for _, r := range recs {
		s := r.resp.Stats
		st.checks += float64(s.Checks)
		st.loads += float64(s.ShadowLoads)
		st.stores += float64(s.ShadowStores)
		st.hits += float64(s.CacheHits)
		st.refills += float64(s.CacheRefills)
		st.ranges += float64(s.RangeChecks)
		st.fast += float64(s.FastChecks)
		st.slow += float64(s.SlowChecks)
		st.errs += float64(r.resp.ErrorTotal)
	}
	res.set("san.checks", st.checks/n, "count")
	res.set("san.shadow_loads", st.loads/n, "count")
	res.set("san.shadow_stores", st.stores/n, "count")
	res.set("san.loads_per_check", ratio(st.loads, st.checks), "ratio")
	res.set("san.cache_hit_ratio", ratio(st.hits, st.hits+st.refills), "frac")
	res.set("san.range_checks", st.ranges/n, "count")
	res.set("san.slow_check_ratio", ratio(st.slow, st.fast+st.slow), "frac")
	res.set("san.share", 1-ratio(nativeNs, refRunNs), "frac")

	if m.replay {
		res.set("trace.decode_us", meanStep("trace.base64")+meanStep("trace.read"), "us")
		res.set("trace.replay_us", meanStep("trace.replay"), "us")
		var events float64
		for _, d := range li.directs {
			events += float64(d.rec.in.events)
		}
		res.set("trace.events", events/nd, "count")
	} else {
		res.set("trace.decode_us", refDecode/nd, "us")
		res.set("trace.replay_us", refReplay/nd, "us")
		res.set("trace.events", refEvents/nd, "count")
	}
	res.set("report.errors", st.errs/n, "count")

	res.set("federation.hop_us", li.fed["hop_us"], "us")
	res.set("federation.retries", li.fed["retries"], "count")
	res.set("federation.backend_errors", li.fed["backend_errors"], "count")

	ks := float64(li.base.attempted) / 1000
	res.set("go.gc_cycles_per_ksession", float64(li.ms1.NumGC-li.ms0.NumGC)/ks, "count/ksession")
	// The mean stop-the-world pause per cycle covers every cycle of the
	// process so far, the forced one before the untraced phase included: a
	// spec phase can pass without a single cycle.
	res.set("go.gc_pause_us", float64(li.ms1.PauseTotalNs)/1e3/float64(li.ms1.NumGC), "us")
	res.set("go.alloc_kb_per_session", float64(li.ms1.TotalAlloc-li.ms0.TotalAlloc)/1024/float64(li.base.attempted), "KiB")

	// Virtual-clock error: measured wall_ns / virtual_ns per kind.
	perKind := map[string][]float64{}
	var all []float64
	for _, r := range recs {
		if r.resp.VirtualNs > 0 {
			x := float64(r.resp.WallNs) / float64(r.resp.VirtualNs)
			perKind[r.in.kind] = append(perKind[r.in.kind], x)
			all = append(all, x)
		}
	}
	scale := median(all)
	kindRatio := map[string]float64{}
	residual := 0.0
	for k, xs := range perKind {
		kindRatio[k] = median(xs)
		residual = math.Max(residual, math.Abs(kindRatio[k]/scale-1))
	}
	res.set("vclock.wall_per_virtual", scale, "ratio")
	res.set("vclock.residual", residual, "frac")

	// Coverage: per directly replayed session, the outer phases plus the
	// session window's steps (the engine's wall_ns for execute, the direct
	// replay for the rest), as a share of the same sessions' round trips.
	// The share of the untraced round trip is printed on the layers line;
	// it also holds the difference between the traced and the untraced
	// phase, which trace_overhead_frac reports.
	var attributed, rtts, tracedRTT []float64
	var inWindow time.Duration
	for _, d := range li.directs {
		o := li.outers[d.rec.session]
		w := d.windowSteps() + time.Duration(d.rec.resp.WallNs)
		inWindow += w
		attributed = append(attributed, us(o.rtt-o.window)+us(w))
		rtts = append(rtts, us(o.rtt))
	}
	for _, r := range recs {
		tracedRTT = append(tracedRTT, us(li.outers[r.session].rtt))
	}
	untraced := median(sortedMs(li.base.lats())) * 1e3
	res.set("phase_coverage", mean(attributed)/mean(rtts), "frac")
	res.set("phase_remainder_us", mean(rtts)-mean(attributed), "us")
	res.set("trace_overhead_frac", median(tracedRTT)/untraced-1, "frac")

	var wallNs float64
	for _, r := range recs {
		wallNs += float64(r.resp.WallNs)
	}
	self := map[string]float64{
		"service.transport (round_trip self)": meanOuter(sumOuter.rtt - sumOuter.handler),
		"service.queue_wait (handler self)":   meanOuter(sumOuter.admit) - decodeReq,
		"engine.execute (response wall_ns)":   wallNs / n / 1e3,
		"service.session_self (remainder)":    meanOuter(sumOuter.window) - us(inWindow)/nd,
	}
	for _, d := range li.directs[:1] {
		for _, s := range d.steps {
			if s.where == admit || s.where == window {
				self[s.name] = meanStep(s.name)
			}
		}
	}
	detail, _ := json.Marshal(map[string]any{
		"self_us_per_session":     self,
		"vclock_wall_per_virtual": kindRatio,
		"untraced_median_rtt_us":  untraced,
		"coverage_of_untraced":    median(attributed) / untraced,
		"traced_sessions":         len(recs),
		"direct_sessions":         len(li.directs),
		"remainder": "the session window (worker pickup to handler end) not covered by the direct pipeline steps: " +
			"engine bookkeeping (finish, recordErrors), the response write, and in-server vs direct execution differences",
	})
	fmt.Fprintf(w, "layers %s\n", detail)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// indexSpans groups the outer spans by session and name.
func indexSpans(tr *tracer) map[string]map[string]span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[string]map[string]span{}
	for _, s := range tr.spans {
		if out[s.Session] == nil {
			out[s.Session] = map[string]span{}
		}
		out[s.Session][s.Name] = s
	}
	return out
}

// outerOf derives a session's outer timing from its spans.
func outerOf(spans map[string]span) (outer, error) {
	rt, ok1 := spans["round_trip"]
	back, ok2 := spans["handler"]
	pick, ok3 := spans["pickup"]
	if !ok1 || !ok2 || !ok3 {
		return outer{}, fmt.Errorf("missing outer spans (have %d)", len(spans))
	}
	o := outer{rtt: rt.dur(), handler: back.dur(),
		admit:  time.Duration(pick.StartNs - back.StartNs),
		window: time.Duration(back.EndNs - pick.StartNs)}
	return o, nil
}

// meanHop is the mean federation hop of the traced sessions in µs: the
// front-end handler span minus the backend handler span.
func meanHop(recs []record, bySession map[string]map[string]span) float64 {
	var hops []float64
	for _, r := range recs {
		front, ok1 := bySession[r.session]["front"]
		back, ok2 := bySession[r.session]["handler"]
		if ok1 && ok2 {
			hops = append(hops, float64(front.dur()-back.dur())/1e3)
		}
	}
	return mean(hops)
}

// probeHop measures the federation proxy hop:
// it puts a one-backend federating front-end in front of the engine and
// sends hopProbeSessions of the workload's sessions through it, traced.
func probeHop(top *topology, h *hooks, set *inputSet) (map[string]float64, error) {
	rb, err := service.NewRemoteBackend(service.FederationConfig{
		Members: []service.BackendMember{{Name: "b0", URL: top.url}}})
	if err != nil {
		return nil, err
	}
	defer rb.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: traceHandler(h, "front", service.NewFederatedServer(rb))}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	c := newClient()
	defer c.close()
	tr := h.tr.Load()
	order := set.orders[0]
	var recs []record
	for i := 0; i < hopProbeSessions; i++ {
		in := set.inputs[order[i%len(order)]]
		req := in.req
		req.Tenant = fmt.Sprintf("hop-%d", i)
		body, _ := json.Marshal(req) // a service.Request always marshals
		t := time.Now()
		status, reply, err := c.post("http://"+ln.Addr().String(), body)
		if err != nil {
			return nil, err
		}
		tr.add("round_trip", req.Tenant, "", t, time.Now())
		if _, err := verify(in, status, reply); err != nil {
			return nil, fmt.Errorf("hop probe: %w", err)
		}
		recs = append(recs, record{session: req.Tenant, in: in})
	}
	out := proxyCounters(rb)
	out["hop_us"] = meanHop(recs, indexSpans(tr))
	return out, nil
}

// proxyCounters reads the federation router's retry and backend-error
// counters from its metrics.
func proxyCounters(rb *service.RemoteBackend) map[string]float64 {
	var buf bytes.Buffer
	rb.WriteMetrics(&buf)
	text := buf.String()
	return map[string]float64{
		"retries":        promValue(text, "gsan_proxy_retries_total"),
		"backend_errors": promValue(text, "gsan_proxy_backend_errors_total"),
	}
}

// promValue sums every sample of the named family in a Prometheus text
// exposition.
func promValue(text, name string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(rest)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// writeSpans writes every span as one JSON line, resolving the parents of
// the outer spans: the handler runs under the front-end when there is
// one, and the pickup mark under the handler.
func writeSpans(path string, tr *tracer, bySession map[string]map[string]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		switch s.Name {
		case "front":
			s.Parent = "round_trip"
		case "handler":
			s.Parent = "round_trip"
			if _, ok := bySession[s.Session]["front"]; ok {
				s.Parent = "front"
			}
		case "pickup":
			s.Parent = "handler"
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
