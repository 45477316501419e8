// Command gsan runs one SPEC-like workload under one sanitizer and prints
// the run's error reports and counters — the closest thing to "running a
// binary under the sanitizer" the simulation offers. It can also record a
// run to a portable memory-operation trace, replay traces under any
// sanitizer, and serve the multi-tenant sanitization service over HTTP.
//
// Usage:
//
//	gsan -workload 505.mcf_r -san giantsan [-scale N]
//	gsan -workload 505.mcf_r -tier sampled
//	gsan -workload 505.mcf_r -record run.trace
//	gsan -replay run.trace -san asan
//	gsan -serve :8080 [-serve-workers N] [-serve-queue N]
//	     [-max-heap-bytes N] [-tier-budget-ns N] [-tier-window N] [-serve-canary]
//	gsan -serve :8080 -federate http://b1:8081,http://b2:8082
//	     [-federate-health-interval D] [-federate-connect-timeout D]
//	     [-federate-timeout D] [-federate-inflight N]
//	gsan -canary 200 [-canary-dir DIR] [-canary-plant NAME]
//	gsan -list
//
// -tier runs the workload at a rung of the service's sanitization ladder
// (full, elim, cheap, sampled) instead of naming an exact sanitizer. In
// serve mode, -tier-budget-ns and -tier-window configure the adaptive
// admission controller: tiered sessions degrade to cheaper rungs under
// queue pressure or when the rolling mean virtual bill blows the budget,
// and are only rejected with 429 when even the cheapest rung has no
// queue slot.
//
// -federate turns serve mode into a federation front-end: the process
// executes no sessions itself but routes each POST /sessions to one of
// the listed backend gsan -serve processes by consistent hash of the
// tenant. Backends are health-checked and ejected from the ring when down
// or draining (~1/N of tenants remap, the rest stay put); a session whose
// backend connection never completed is retried once on its re-ringed
// placement, while accepted sessions are never retried. GET /metrics on
// the front-end federates the backends' metrics: aggregate gsan_*
// families that dashboards already understand plus per-backend
// gsan_backend_* families that sum exactly to them.
//
// -canary N runs a one-shot differential validation campaign: N
// generated programs, each recorded and replayed under the fast path,
// the reference path and the byte-granular oracle, with any discrepancy
// ddmin-shrunk to a 1-minimal trace. Exit status 1 means discrepancies
// were found. -serve-canary runs the same validation continuously inside
// the service, in spare worker capacity only. Divergence artifacts
// (shrunk trace + JSON description) land in -canary-dir; -canary-plant
// (or the GSAN_CANARY_PLANT environment variable) injects a deliberate
// fast-path bug, the seam the CI smoke job uses to prove the pipeline
// detects, shrinks and persists real divergence.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"giantsan/internal/bench"
	"giantsan/internal/canary"
	"giantsan/internal/lfp"
	"giantsan/internal/rt"
	"giantsan/internal/service"
	"giantsan/internal/trace"
	"giantsan/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: parse args, dispatch one
// mode, write human output to stdout and diagnostics to stderr, return
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gsan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("workload", "505.mcf_r", "workload ID (see -list)")
	sanName := fs.String("san", "giantsan", "sanitizer: native, giantsan, asan, asan--, lfp, cacheonly, elimonly, fullcheck, sampled8")
	tier := fs.String("tier", "", "run at a sanitization-ladder rung (full, elim, cheap, sampled) instead of -san")
	scale := fs.Int("scale", 1, "workload scale factor")
	list := fs.Bool("list", false, "list workload IDs and exit")
	record := fs.String("record", "", "record the run to a trace file")
	replay := fs.String("replay", "", "replay a trace file instead of running a workload")
	serve := fs.String("serve", "", "serve the sanitization service on this address (e.g. :8080)")
	serveWorkers := fs.Int("serve-workers", 0, "serve mode: concurrent session executors (0 = GOMAXPROCS)")
	serveQueue := fs.Int("serve-queue", 0, "serve mode: admission queue depth (0 = 64)")
	maxHeapBytes := fs.Uint64("max-heap-bytes", 0, "serve mode: cap on a session's scaled heap (0 = 4 GiB)")
	tierBudgetNs := fs.Int64("tier-budget-ns", 0, "serve mode: per-session virtual budget driving tier downgrades (0 = off)")
	tierWindow := fs.Int("tier-window", 0, "serve mode: rolling window of sessions the budget averages over (0 = 32)")
	canaryN := fs.Int("canary", 0, "run a one-shot differential validation campaign over N generated programs")
	serveCanary := fs.Bool("serve-canary", false, "serve mode: enable the always-on differential validation canary")
	canaryDir := fs.String("canary-dir", "", "directory for canary divergence artifacts (shrunk trace + JSON)")
	canaryPlant := fs.String("canary-plant", "", "inject a named fast-path mutation into the canary (test seam; also GSAN_CANARY_PLANT)")
	canaryInterval := fs.Duration("canary-interval", 0, "serve mode: pacing between canary runs (0 = 25ms)")
	canaryMaxQueue := fs.Int("canary-max-queue", 0, "serve mode: admit canary runs only while queue depth is at or below this")
	federate := fs.String("federate", "", "serve mode: run as a federation front-end routing sessions to these comma-separated backend gsan -serve URLs instead of executing locally")
	federateHealthInterval := fs.Duration("federate-health-interval", 0, "federation: pacing of the backend /healthz sweep (0 = 1s)")
	federateConnectTimeout := fs.Duration("federate-connect-timeout", 0, "federation: backend dial timeout (0 = 2s)")
	federateTimeout := fs.Duration("federate-timeout", 0, "federation: end-to-end timeout for one proxied session (0 = 5m)")
	federateInflight := fs.Int("federate-inflight", 0, "federation: max concurrently proxied sessions per backend (0 = 256)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *canaryPlant == "" {
		*canaryPlant = os.Getenv("GSAN_CANARY_PLANT")
	}

	// The modes are mutually exclusive; a command line that asks for two
	// of them is a mistake, not a priority question — refuse it.
	modes := 0
	for _, on := range []bool{*list, *replay != "", *record != "", *serve != "", *canaryN > 0} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		switch {
		case *replay != "" && *record != "":
			fmt.Fprintln(stderr, "gsan: -replay and -record are mutually exclusive (replay consumes a trace, record produces one)")
		case *list:
			fmt.Fprintln(stderr, "gsan: -list cannot be combined with -record, -replay, -serve or -canary")
		default:
			fmt.Fprintln(stderr, "gsan: pick one mode: -list, -record, -replay, -serve or -canary")
		}
		return 2
	}
	if *canaryPlant != "" {
		if _, err := canary.PlantByName(*canaryPlant); err != nil {
			fmt.Fprintln(stderr, "gsan:", err)
			return 2
		}
	}
	var fedCfg *service.FederationConfig
	if *federate != "" {
		switch {
		case *serve == "":
			fmt.Fprintln(stderr, "gsan: -federate requires -serve (the front-end is a serve-mode deployment)")
			return 2
		case *serveCanary:
			fmt.Fprintln(stderr, "gsan: -federate and -serve-canary are mutually exclusive: the front-end has no engine to validate; run the canary on the backends")
			return 2
		}
		cfg := service.FederationConfig{
			HealthInterval: *federateHealthInterval,
			ConnectTimeout: *federateConnectTimeout,
			RequestTimeout: *federateTimeout,
			MaxInflight:    *federateInflight,
		}
		for _, u := range strings.Split(*federate, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			// The URL doubles as the ring identity: two front-ends given the
			// same backend list agree on every tenant's placement.
			cfg.Members = append(cfg.Members, service.BackendMember{Name: u, URL: u})
		}
		if len(cfg.Members) == 0 {
			fmt.Fprintln(stderr, "gsan: -federate needs at least one backend URL")
			return 2
		}
		fedCfg = &cfg
	}

	switch {
	case *list:
		for _, w := range workload.All() {
			fmt.Fprintln(stdout, w.ID)
		}
		return 0
	case *serve != "":
		return serveHTTP(*serve, fedCfg, service.Config{
			Workers:        *serveWorkers,
			QueueDepth:     *serveQueue,
			MaxHeapBytes:   *maxHeapBytes,
			TierBudgetNs:   *tierBudgetNs,
			TierWindow:     *tierWindow,
			CanaryEnabled:  *serveCanary,
			CanaryDir:      *canaryDir,
			CanaryPlant:    *canaryPlant,
			CanaryInterval: *canaryInterval,
			CanaryMaxQueue: *canaryMaxQueue,
		}, stdout, stderr)
	case *canaryN > 0:
		return canaryCampaign(*canaryN, *canaryPlant, *canaryDir, stdout, stderr)
	case *replay != "":
		return replayTrace(*replay, *sanName, stdout, stderr)
	case *record != "":
		return recordRun(*id, *scale, *record, stdout, stderr)
	}

	w := workload.ByID(*id)
	if w == nil {
		fmt.Fprintf(stderr, "gsan: unknown workload %q (try -list)\n", *id)
		return 2
	}
	var cfg *bench.SanConfig
	if *tier != "" {
		sanSet := false
		fs.Visit(func(f *flag.Flag) { sanSet = sanSet || f.Name == "san" })
		if sanSet {
			fmt.Fprintln(stderr, "gsan: -tier and -san are mutually exclusive")
			return 2
		}
		tr := bench.TierByName(*tier)
		if tr == nil {
			fmt.Fprintf(stderr, "gsan: unknown tier %q (ladder: full, elim, cheap, sampled)\n", *tier)
			return 2
		}
		cfg = &tr.Config
	} else {
		cfg = bench.ConfigByLabel(*sanName)
	}
	if cfg == nil {
		fmt.Fprintf(stderr, "gsan: unknown sanitizer %q\n", *sanName)
		return 2
	}

	elapsed, res, err := bench.RunOnce(w, *cfg, *scale)
	if err != nil {
		// Workloads are clean; err means reports were raised — print them.
		fmt.Fprintf(stdout, "%v\n", err)
	}
	fmt.Fprintf(stdout, "workload   %s (scale %d)\n", w.ID, *scale)
	fmt.Fprintf(stdout, "sanitizer  %s\n", cfg.Label)
	fmt.Fprintf(stdout, "time       %v\n", elapsed)
	s := res.Stats
	fmt.Fprintf(stdout, "accesses   %d (eliminated %d, cached %d, direct %d)\n",
		s.Accesses, s.Eliminated, s.Cached, s.Direct)
	fmt.Fprintf(stdout, "checks     %d (%d range, fast %d, slow %d)\n",
		res.San.Checks, res.San.RangeChecks, res.San.FastChecks, res.San.SlowChecks)
	fmt.Fprintf(stdout, "metadata   %d shadow loads, %d cache hits, %d refills\n",
		res.San.ShadowLoads, res.San.CacheHits, res.San.CacheRefills)
	fmt.Fprintf(stdout, "checksum   %#x\n", res.Checksum)
	fmt.Fprintf(stdout, "errors     %d\n", res.Errors.Total())
	for i, e := range res.Errors.Errors {
		if i >= 10 {
			fmt.Fprintf(stdout, "  ... and %d more\n", res.Errors.Total()-10)
			break
		}
		fmt.Fprintf(stdout, "  %v\n", e)
	}
	return 0
}

// serveHTTP runs the sanitization service until SIGINT/SIGTERM, then
// drains: stop admitting, finish in-flight sessions, shut the listener
// down cleanly. A non-nil fed runs the process as a federation front-end
// instead: no local engine, sessions proxy to the backend processes by
// consistent hash of their tenant.
func serveHTTP(addr string, fed *service.FederationConfig, cfg service.Config, stdout, stderr io.Writer) int {
	var handler *service.Server
	switch {
	case fed != nil:
		rb, err := service.NewRemoteBackend(*fed)
		if err != nil {
			fmt.Fprintln(stderr, "gsan:", err)
			return 2
		}
		handler = service.NewFederatedServer(rb)
		fmt.Fprintf(stdout, "gsan: federating over %d backends, sessions route by tenant\n", len(fed.Members))
	default:
		handler = service.NewServer(service.New(cfg))
	}
	srv := newHTTPServer(addr, handler)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "gsan: serving on %s (POST /sessions, GET /metrics)\n", addr)

	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "gsan: %v — draining\n", sig)
		// Close first, concurrently with the listener shutdown: Close flips
		// the backend to draining immediately, so /healthz answers 503
		// "draining" while the socket is still up and routers (or a
		// federation front-end's health sweep) can pre-drain this process
		// instead of discovering the refusal per-session.
		closed := make(chan struct{})
		go func() { handler.Close(); close(closed) }()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-closed
		return 0
	case err := <-errc:
		fmt.Fprintln(stderr, "gsan:", err)
		handler.Close()
		return 1
	}
}

// Connection bounds of the serve-mode listener. A client gets
// readHeaderTimeout to send its request headers, so one that trickles
// them (or never finishes) cannot hold a connection open; a request body
// is not bounded by time, since an honest replay upload can be tens of
// megabytes (maxSessionBody in internal/service bounds its size). An
// idle keep-alive connection is closed after idleTimeout, which is longer
// than the federation front-end's 90 s idle-pool timeout, so a front-end
// always drops an idle connection before its backend does and never
// sends a session down a connection the backend is closing.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the serve-mode http.Server with its connection bounds.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// canaryCampaign runs a one-shot differential validation campaign: the
// offline twin of the service's always-on canary. Exit codes: 0 clean,
// 1 discrepancies found (or the campaign failed to run).
func canaryCampaign(programs int, plant, dir string, stdout, stderr io.Writer) int {
	rep, err := bench.CanaryRun(programs, plant, dir, bench.Options{VirtualTime: true})
	if err != nil {
		fmt.Fprintln(stderr, "gsan:", err)
		return 1
	}
	fmt.Fprint(stdout, bench.RenderCanary(rep))
	if rep.Discrepancies > 0 || rep.Failures > 0 {
		if dir != "" {
			fmt.Fprintf(stdout, "repro artifacts written to %s\n", dir)
		}
		return 1
	}
	return 0
}

// recordRun executes the workload under GiantSan with a trace recorder
// attached and writes the trace to path.
func recordRun(id string, scale int, path string, stdout, stderr io.Writer) int {
	w := workload.ByID(id)
	if w == nil {
		fmt.Fprintf(stderr, "gsan: unknown workload %q\n", id)
		return 2
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "gsan:", err)
		return 1
	}
	defer f.Close()
	res, err := canary.Record(f, w.Build(scale), canary.LegFor(rt.GiantSan), w.HeapBytes*uint64(scale))
	if err != nil {
		fmt.Fprintln(stderr, "gsan: recording:", err)
		return 1
	}
	fmt.Fprintf(stdout, "recorded %s (%d accesses, %d errors) to %s\n",
		id, res.Stats.Accesses, res.Errors.Total(), path)
	return 0
}

// replayTrace replays a trace file under the named sanitizer.
func replayTrace(path, sanName string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "gsan:", err)
		return 1
	}
	defer f.Close()
	var run rt.Runtime
	anchored := false
	switch sanName {
	case "giantsan":
		run = rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 64 << 20})
		anchored = true
	case "asan":
		run = rt.New(rt.Config{Kind: rt.ASan, HeapBytes: 64 << 20})
	case "asan--":
		run = rt.New(rt.Config{Kind: rt.ASanMinus, HeapBytes: 64 << 20})
	case "lfp":
		run = lfp.New(lfp.Config{HeapBytes: 64 << 20, MaxClass: 1 << 20})
		anchored = true
	default:
		fmt.Fprintf(stderr, "gsan: cannot replay under %q\n", sanName)
		return 2
	}
	res, err := trace.Replay(f, run, anchored)
	if err != nil {
		fmt.Fprintln(stderr, "gsan:", err)
		return 1
	}
	st := run.San().Stats()
	fmt.Fprintf(stdout, "replayed %d events under %s: %d errors, %d checks, %d shadow loads\n",
		res.Events, sanName, res.Errors.Total(), st.Checks, st.ShadowLoads)
	for i, e := range res.Errors.Errors {
		if i >= 5 {
			break
		}
		fmt.Fprintf(stdout, "  %v\n", e)
	}
	return 0
}
