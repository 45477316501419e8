package main

import (
	"bytes"
	_ "embed"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/progen"
	"giantsan/internal/rt"
	"giantsan/internal/service"
	"giantsan/internal/trace"
	"giantsan/internal/workload"
)

// mix is one workload: a traffic mix and the topology that serves it.
// README.md says why each was chosen.
type mix struct {
	name string
	// kernels lists the workload IDs of a spec mix.
	kernels []string
	// replay mixes send trace_b64 sessions recorded from progen programs.
	replay bool
}

var mixes = []mix{
	{name: "spec-check", kernels: []string{"500.perlbench_r", "523.xalancbmk_r", "531.deepsjeng_r", "557.xz_r"}},
	{name: "spec-churn", kernels: []string{"502.gcc_r", "520.omnetpp_r", "511.povray_r"}},
	{name: "replay-small", replay: true},
}

func mixByName(name string) (mix, error) {
	for _, m := range mixes {
		if m.name == name {
			return m, nil
		}
	}
	names := make([]string, len(mixes))
	for i, m := range mixes {
		names[i] = m.name
	}
	return mix{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Replay mixes draw this many distinct traces from the seed, and keep only
// traces of at most maxTraceBytes so that request bodies stay under ~20 KB.
const (
	replayTraces  = 2048
	maxTraceBytes = 15000
	// orderBlocks is how many seeded permutations make up one client's
	// session order before it repeats.
	orderBlocks = 64
)

// programArena is the arena progen programs are recorded and run in.
var programArena = rt.Config{Kind: rt.GiantSan, HeapBytes: 16 << 20}

// input is one distinct session request with its known answer.
type input struct {
	// kind groups inputs for per-kind figures: the kernel ID of a spec
	// session, "clean" or "buggy" for a replay.
	kind string
	req  service.Request
	body []byte
	// checksum is a spec session's expected checksum.
	checksum string
	// events is the number of events in a replay's trace; buggy says the
	// program behind it has a planted bug the replay must report.
	events int
	buggy  bool
	// progSeed is the progen seed of the program behind a replay's trace.
	progSeed int64
}

// inputSet is a workload's inputs and each client's session order, an
// index list that the client cycles through.
type inputSet struct {
	inputs []*input
	orders [][]int
}

// genInputs builds a workload's inputs and session orders from seed. Every
// request pins the sanitizer label, which also selects the
// instrumentation profile replay traces are recorded under: the benchmark
// sends giantsan, and its tests native.
func genInputs(m mix, seed int64, clients int, label string) (*inputSet, error) {
	rng := rand.New(rand.NewSource(seed))
	set := &inputSet{}
	var pool []int // one block of the session order, before shuffling
	if m.replay {
		prof, ok := profileByName(label)
		if !ok {
			return nil, fmt.Errorf("no instrumentation profile for sanitizer %q", label)
		}
		env := rt.Fork(programArena)
		for len(set.inputs) < replayTraces {
			in := &input{kind: "clean", buggy: len(set.inputs)%2 == 1, progSeed: rng.Int63()}
			if in.buggy {
				in.kind = "buggy"
			}
			p := progFor(in)
			if p == nil {
				continue // Buggy did not plant its bug for this seed
			}
			data, events, err := recordTrace(p, prof, env)
			if err != nil {
				return nil, fmt.Errorf("recording progen seed %d: %w", in.progSeed, err)
			}
			if len(data) > maxTraceBytes {
				continue
			}
			in.events = events
			in.req = service.Request{TraceB64: base64.StdEncoding.EncodeToString(data), Sanitizer: label}
			set.inputs = append(set.inputs, in)
			pool = append(pool, len(set.inputs)-1)
		}
	} else {
		for i, id := range m.kernels {
			sum, ok := knownChecksums[id]
			if !ok {
				return nil, fmt.Errorf("no known answer for %s", id)
			}
			set.inputs = append(set.inputs, &input{kind: id, checksum: sum,
				req: service.Request{Workload: id, Sanitizer: label}})
			pool = append(pool, i)
		}
	}
	for _, in := range set.inputs {
		body, err := json.Marshal(in.req)
		if err != nil {
			return nil, err
		}
		in.body = body
	}
	for c := 0; c < clients; c++ {
		var order []int
		for b := 0; b < orderBlocks; b++ {
			block := append([]int(nil), pool...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			order = append(order, block...)
			if m.replay && b == 0 {
				break // one permutation of every trace is a long enough cycle
			}
		}
		set.orders = append(set.orders, order)
	}
	return set, nil
}

// profileByName maps a sanitizer label to the instrumentation profile a
// replay trace is recorded under.
func profileByName(label string) (instrument.Profile, bool) {
	switch label {
	case "giantsan":
		return instrument.GiantSanProfile, true
	case "native":
		return instrument.Native, true
	}
	return instrument.Profile{}, false
}

// recordTrace runs p under prof on env with a trace recorder attached and
// returns the encoded trace and its event count. env is reset afterwards.
func recordTrace(p *ir.Prog, prof instrument.Profile, env *rt.Env) ([]byte, int, error) {
	defer env.Reset()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	rec := trace.NewRecorder(env, tw)
	ex, err := interp.Prepare(p, prof, rec)
	if err != nil {
		return nil, 0, err
	}
	ex.Run()
	if err := tw.Flush(); err != nil {
		return nil, 0, err
	}
	if rec.Err() != nil {
		return nil, 0, rec.Err()
	}
	events, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), len(events), nil
}

// progFor builds the program behind a replay input, or returns nil when
// progen.Buggy does not plant its bug for the seed.
func progFor(in *input) *ir.Prog {
	if !in.buggy {
		return progen.Clean(in.progSeed)
	}
	if p, planted := progen.Buggy(in.progSeed); planted {
		return p
	}
	return nil
}

//go:embed known_answers.json
var knownAnswersJSON []byte

// knownChecksums maps each spec kernel to its checksum at scale 1, as
// recorded under the native (uninstrumented) configuration. A sanitizer
// must not change a program's values, so every sanitized session has to
// reproduce it.
var knownChecksums = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(knownAnswersJSON, &m); err != nil {
		panic(fmt.Sprintf("known_answers.json: %v", err))
	}
	return m
}()

// nativeChecksums runs every kernel of every spec mix under the native
// configuration and returns its checksum: the content of
// known_answers.json, which TestKnownAnswersAreNative prints when the two
// differ.
func nativeChecksums() (map[string]string, error) {
	out := map[string]string{}
	for _, m := range mixes {
		for _, id := range m.kernels {
			w := workload.ByID(id)
			if w == nil {
				return nil, fmt.Errorf("unknown kernel %s", id)
			}
			ex, err := interp.Prepare(w.Build(1), instrument.Native,
				rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: w.HeapBytes}))
			if err != nil {
				return nil, err
			}
			out[id] = fmt.Sprintf("%#x", ex.Run().Checksum)
		}
	}
	return out, nil
}

// verify is the known-answer gate for one response: the HTTP status, the
// session status and the answer itself.
func verify(in *input, status int, body []byte) (*service.Response, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	var r service.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if r.Status != service.StatusOK {
		return &r, fmt.Errorf("session status %q: %s", r.Status, r.Message)
	}
	switch {
	case in.req.Workload != "":
		if r.ErrorTotal != 0 {
			return &r, fmt.Errorf("%s: %d error reports on a clean kernel", in.kind, r.ErrorTotal)
		}
		if r.Checksum != in.checksum {
			return &r, fmt.Errorf("%s: checksum %s, want %s", in.kind, r.Checksum, in.checksum)
		}
	case r.Events != in.events:
		return &r, fmt.Errorf("replay of seed %d: %d events, want %d", in.progSeed, r.Events, in.events)
	case in.buggy && r.ErrorTotal < 1:
		return &r, fmt.Errorf("replay of buggy seed %d: planted bug not reported", in.progSeed)
	case !in.buggy && r.ErrorTotal != 0:
		return &r, fmt.Errorf("replay of clean seed %d: %d false reports", in.progSeed, r.ErrorTotal)
	}
	return &r, nil
}
