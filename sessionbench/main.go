// Command sessionbench is the repository's end-to-end benchmark. It is a
// closed-loop load generator: it serves sanitization sessions on loopback
// HTTP through the same handler gsan -serve mounts
// (service.NewServer(service.New(cfg)) behind an http.Server), drives them
// from one client per engine worker, checks every answer against a known
// answer, and prints the end-to-end metrics. With --trace 1 it runs a separate
// traced measurement that splits each session into layers by timing its
// own calls into each module's public functions (traced.go).
//
// Usage, from the repository root (sessionbench/run.sh builds and runs):
//
//	sessionbench --workload spec-check --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads
// and the metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"giantsan/internal/rt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// setup_s is the median over fresh server processes: at least
// minSetupProbes of them, and as many more as start within setupBudget
// (up to maxSetupProbes), so a workload whose set-up is only a few
// milliseconds of process start still gets a steady median.
const (
	minSetupProbes = 9
	maxSetupProbes = 200
	setupBudget    = 2 * time.Second
)

// warmup is how long the closed loop runs before a measured phase.
const warmup = 1500 * time.Millisecond

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sessionbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: spec-check, spec-churn or replay-small")
	seed := fs.Int64("seed", 1, "seed of the session order and of every generated input")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	probe := fs.Bool("setup-probe", false, "serve an engine, send it the bodies read from stdin, print ready with the peak resident set and exit (used by the setup_s and mem_peak_mb measurements)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		if err := setupProbe(stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "sessionbench: setup probe:", err)
			return 1
		}
		return 0
	}
	m, err := mixByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "sessionbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	set, err := genInputs(m, *seed, clientCount(), "giantsan")
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 1
	}
	printFingerprint(stdout, m, *seed, set)
	var res *result
	if *traced == 1 {
		spans := fmt.Sprintf(".bench_build/sessionbench/spans-%s-seed%d.jsonl", m.name, *seed)
		res, err = runTraced(m, set, dur, spans, stdout)
	} else {
		res, err = runUntraced(m, set, dur, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 1
	}
	for _, why := range res.reasons {
		fmt.Fprintln(stderr, "sessionbench: failed session:", why)
	}
	line, err := json.Marshal(res.out)
	if err != nil { // a metric that is not a finite number
		fmt.Fprintln(stderr, "sessionbench: result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.out.Failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line's schema.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out     output
	reasons []string
}

func newResult(attempted, failed int, reasons []string) *result {
	return &result{
		out:     output{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}},
		reasons: reasons,
	}
}

func (r *result) set(name string, v float64, unit string) { r.out.Metrics[name] = metric{v, unit} }

// printFingerprint records the machine and the settings a run measured.
func printFingerprint(w io.Writer, m mix, seed int64, set *inputSet) {
	kernels := m.kernels
	if m.replay {
		kernels = []string{fmt.Sprintf("%d progen traces (clean/buggy alternating)", len(set.inputs))}
	}
	fp := map[string]any{
		"calib_ms": calibrationMs(),
		"workload": m.name, "seed": seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"engine_workers": engineWorkers(), "clients": clientCount(),
		"kernels": kernels,
	}
	line, _ := json.Marshal(fp)
	fmt.Fprintf(w, "fingerprint %s\n", line)
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrationMs times a fixed loop of dependent random reads over a 32 MiB
// table, the fastest of three tries, so that runs on a slower machine can
// be told apart.
func calibrationMs() float64 {
	table := make([]uint64, 4<<20)
	for i := range table {
		table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	best := time.Hour
	for try := 0; try < 3; try++ {
		t := time.Now()
		x := uint64(1)
		for i := 0; i < 300_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x += table[x%uint64(len(table))]
		}
		calibSink = x
		best = min(best, time.Since(t))
	}
	return float64(best) / 1e6
}

// runUntraced measures the end-to-end metrics: setup_s in fresh processes,
// then a warmed closed loop for dur on an in-process server.
func runUntraced(m mix, set *inputSet, dur time.Duration, w io.Writer) (*result, error) {
	setup, mem, err := probeSetup(set)
	if err != nil {
		return nil, err
	}
	top, err := startTopology(nil)
	if err != nil {
		return nil, err
	}
	defer top.close()
	clients, pos := warm(top.url, set)
	defer closeClients(clients)
	runtime.GC()
	lr := drive(top.url, set, clients, pos, dur, nil)
	res := newResult(lr.attempted, lr.failed, lr.reasons)
	lat := sortedMs(lr.lats())
	// p99, the maximum and the load generator's own peak resident set are
	// printed but are no metric: a spec run holds a few hundred round
	// trips, too few for a steady p99, and the loaded process's peak moves
	// with the GC's pacing.
	hwm, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "latency {\"samples\":%d,\"p99_ms\":%.4f,\"max_ms\":%.4f,\"setup_probes\":%d,\"loaded_peak_rss_mb\":%.1f}\n",
		len(lat), quantile(lat, 0.99), quantile(lat, 1), len(setup), hwm)
	res.set("setup_s", median(setup), "s")
	res.set("sessions_per_s", float64(lr.attempted-lr.failed)/lr.elapsed.Seconds(), "1/s")
	res.set("latency_p50_ms", lr.kindQuantile(0.50), "ms")
	res.set("latency_p90_ms", lr.kindQuantile(0.90), "ms")
	res.set("mem_peak_mb", median(mem), "MB")
	return res, nil
}

// warm runs the closed loop for warmup before anything is measured. Each
// client's order holds every distinct kind within its first block, so the
// warm-up reaches every arena-pool key from every client, and the arena
// shelves hold as many warm arenas as can be in flight. It returns the
// clients and where each continues in its order.
func warm(url string, set *inputSet) ([]*client, []int) {
	clients := make([]*client, len(set.orders))
	for i := range clients {
		clients[i] = newClient()
	}
	pos := make([]int, len(clients))
	drive(url, set, clients, pos, warmup, nil)
	return clients, pos
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak resident set: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// coldBodies returns one request per arena-pool key of the inputs: the
// first input of each key.
func coldBodies(set *inputSet) [][]byte {
	seen := map[rt.Config]bool{}
	var out [][]byte
	for _, in := range set.inputs {
		if key := arenaConfig(&in.req); !seen[key] {
			seen[key] = true
			out = append(out, in.body)
		}
	}
	return out
}

// probeSetup measures setup_s: it starts fresh processes of
// this binary, each of which serves an engine, sends one
// cold session per arena-pool key and prints ready. A fresh process is the
// only honest cold start: rt.Fork keeps a process-wide base-image
// registry, so a second server in one process starts warm. The time runs
// from starting the process to reading its ready line, which carries the
// process's peak resident set (VmHWM) at that point.
func probeSetup(set *inputSet) (secs, peakMB []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	stdin := bytes.Join(coldBodies(set), []byte("\n"))
	start := time.Now()
	for i := 0; i < minSetupProbes || (i < maxSetupProbes && time.Since(start) < setupBudget); i++ {
		cmd := exec.Command(exe, "--setup-probe")
		cmd.Stdin = bytes.NewReader(stdin)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		var mb float64
		if _, err := fmt.Sscanf(line, "ready %g\n", &mb); err != nil || rerr != nil || werr != nil {
			return nil, nil, fmt.Errorf("setup probe %d: read %q (%v), exit %v", i, line, rerr, werr)
		}
		secs = append(secs, d.Seconds())
		peakMB = append(peakMB, mb)
	}
	return secs, peakMB, nil
}

// setupProbe is the child side of probeSetup.
func setupProbe(stdin io.Reader, stdout io.Writer) error {
	data, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	top, err := startTopology(nil)
	if err != nil {
		return err
	}
	defer top.close()
	c := newClient()
	defer c.close()
	for _, body := range bytes.Fields(data) {
		if err := coldSession(top, c, body); err != nil {
			return err
		}
	}
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "ready %.3f\n", mb)
	return err
}

// coldSession sends body once and checks that it was served.
func coldSession(top *topology, c *client, body []byte) error {
	status, reply, err := c.post(top.url, body)
	if err != nil {
		return err
	}
	var r struct {
		Status string `json:"status"`
	}
	if status != 200 || json.Unmarshal(reply, &r) != nil || r.Status != "ok" {
		return fmt.Errorf("cold session: HTTP %d: %s", status, bytes.TrimSpace(reply))
	}
	return nil
}
