package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain serves the setup probes: probeSetup starts the running binary
// again with --setup-probe, and under go test that binary is this one.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-probe" {
			os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

// The gate must count a wrong verdict as a failed session. Traces recorded
// under the native profile hold no checks, so a planted bug replays
// without a report: every buggy session must fail, every clean one pass.
func TestGateCatchesMissedBugs(t *testing.T) {
	m, err := mixByName("replay-small")
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"native", "giantsan"} {
		set, err := genInputs(m, 7, 1, label)
		if err != nil {
			t.Fatal(err)
		}
		top, err := startTopology(nil)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient()
		lr := drive(top.url, set, []*client{c}, []int{0}, 300*time.Millisecond, nil)
		c.close()
		top.close()
		buggy := 0
		for i := 0; i < lr.attempted; i++ {
			if set.inputs[set.orders[0][i%len(set.orders[0])]].buggy {
				buggy++
			}
		}
		want := 0
		if label == "native" {
			want = buggy
		}
		if buggy == 0 || lr.failed != want {
			t.Errorf("%s: %d of %d sessions failed, %d buggy; want %d failed", label, lr.failed, lr.attempted, buggy, want)
		}
		for _, why := range lr.reasons {
			if !strings.Contains(why, "planted bug not reported") {
				t.Errorf("%s: unexpected failure %q", label, why)
			}
		}
	}
}

func TestVerify(t *testing.T) {
	spec := &input{kind: "557.xz_r", checksum: knownChecksums["557.xz_r"]}
	spec.req.Workload = spec.kind
	clean := &input{kind: "clean", events: 12}
	clean.req.TraceB64 = "x"
	buggy := &input{kind: "buggy", events: 12, buggy: true}
	buggy.req.TraceB64 = "x"
	ok := func(extra string) []byte { return []byte(`{"status":"ok"` + extra + `}`) }
	for _, tc := range []struct {
		name   string
		in     *input
		status int
		body   []byte
		pass   bool
	}{
		{"spec ok", spec, 200, ok(`,"checksum":"` + spec.checksum + `"`), true},
		{"spec refused", spec, 429, []byte(`{"error":"queue full"}`), false},
		{"spec wrong checksum", spec, 200, ok(`,"checksum":"0x1"`), false},
		{"spec error report", spec, 200, ok(`,"checksum":"` + spec.checksum + `","error_total":1`), false},
		{"spec session error", spec, 200, []byte(`{"status":"error","message":"boom"}`), false},
		{"clean ok", clean, 200, ok(`,"events":12`), true},
		{"clean false report", clean, 200, ok(`,"events":12,"error_total":1`), false},
		{"clean short replay", clean, 200, ok(`,"events":11`), false},
		{"buggy ok", buggy, 200, ok(`,"events":12,"error_total":2`), true},
		{"buggy missed", buggy, 200, ok(`,"events":12`), false},
		{"garbage", clean, 200, []byte(`not json`), false},
	} {
		_, err := verify(tc.in, tc.status, tc.body)
		if (err == nil) != tc.pass {
			t.Errorf("%s: verify error %v, want pass=%v", tc.name, err, tc.pass)
		}
	}
}

// The same seed must yield byte-identical request bodies and session
// orders; another seed another order.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"spec-check", "replay-small"} {
		m, err := mixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gen := func(seed int64) *inputSet {
			set, err := genInputs(m, seed, 2, "giantsan")
			if err != nil {
				t.Fatal(err)
			}
			return set
		}
		a, b, c := gen(5), gen(5), gen(6)
		if len(a.inputs) != len(b.inputs) {
			t.Fatalf("%s: %d vs %d inputs", name, len(a.inputs), len(b.inputs))
		}
		for i := range a.inputs {
			if !bytes.Equal(a.inputs[i].body, b.inputs[i].body) {
				t.Fatalf("%s: input %d differs under one seed", name, i)
			}
		}
		for cl := range a.orders {
			if !equalInts(a.orders[cl], b.orders[cl]) {
				t.Fatalf("%s: client %d order differs under one seed", name, cl)
			}
			if equalInts(a.orders[cl], c.orders[cl]) {
				t.Errorf("%s: client %d order identical under seeds 5 and 6", name, cl)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKnownAnswersAreNative(t *testing.T) {
	got, err := nativeChecksums()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(knownChecksums) {
		t.Errorf("%d native checksums, %d known answers", len(got), len(knownChecksums))
	}
	for id, sum := range got {
		if knownChecksums[id] != sum {
			t.Errorf("%s: native checksum %s, known answer %s", id, sum, knownChecksums[id])
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("native checksums, the content known_answers.json should have:\n%s", out)
	}
}

// Every workload named in BENCHMARK.json must print, as its last line,
// exactly the end-to-end metrics (untraced) or the per-layer metrics
// (traced), each with its declared unit, and pass the gate.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// A traced run writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if len(spec.Workloads) != len(mixes) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(mixes))
	}
	for _, wl := range spec.Workloads {
		for traced, want := range [][]declared{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", wl.Name, "--seed", "3", "--seconds", "0.3",
				"--trace", []string{"0", "1"}[traced]}
			if code := run(args, nil, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%v: metric %s = %+v (present %v), want unit %s", args, d.Name, got, ok, d.Unit)
				}
			}
		}
	}
}

// Latency quantiles are taken per kind and averaged, so that each kind
// weighs the same however many of its sessions a run completed.
func TestKindQuantileWeighsKindsEqually(t *testing.T) {
	var lr loadResult
	for i := 0; i < 9; i++ {
		lr.samples = append(lr.samples, sample{lat: 10 * time.Millisecond, ok: true, kind: "fast"})
	}
	lr.samples = append(lr.samples, sample{lat: 30 * time.Millisecond, ok: true, kind: "slow"})
	if got := lr.kindQuantile(0.5); got != 20 {
		t.Errorf("kindQuantile(0.5) = %v ms, want 20", got)
	}
}
