package trace

import (
	"bytes"
	"hash/fnv"
	"strconv"
	"testing"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/rt"
	"giantsan/internal/shadow"
	"giantsan/internal/workload"
)

// The metamorphic property: replaying an identical memory trace under the
// specialized and reference check paths is an observably identical
// execution — same number of replayed events, byte-identical error logs,
// equal Stats counters, and (now that the poisoners are routed too) a
// byte-identical final shadow state. The traces come from real workload
// kernels, so the comparison covers the whole mix of access widths,
// alignments, range sizes, quasi-bound patterns and allocation size
// classes the instrumentation actually emits, rather than synthetic
// sweeps.

// shadowDigest hashes the full shadow state of env's sanitizer, or returns
// "" when the sanitizer does not expose its shadow.
func shadowDigest(env rt.Runtime) string {
	sh, ok := env.San().(interface{ Shadow() *shadow.Memory })
	if !ok {
		return ""
	}
	h := fnv.New64a()
	m := sh.Shadow()
	h.Write(m.Snapshot(0, m.NumSegments()))
	return strconv.FormatUint(h.Sum64(), 16)
}

// metamorphicKernels is a spread of allocation/access behaviours: pointer
// chasing (mcf), dense stencils (lbm), bulk ranges (xz), string/hash churn
// (perlbench), branchy table lookups (deepsjeng) and tree search (leela).
var metamorphicKernels = []string{
	"505.mcf_r", "519.lbm_r", "557.xz_r",
	"500.perlbench_r", "531.deepsjeng_r", "541.leela_r",
}

// recordKernel runs kernel w under a recording GiantSan runtime and
// returns the serialized trace.
func recordKernel(t *testing.T, w *workload.Workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: w.HeapBytes})
	rec := NewRecorder(env, tw)
	ex, err := interp.Prepare(w.Build(1), instrument.GiantSanProfile, rec)
	if err != nil {
		t.Fatalf("%s: prepare: %v", w.ID, err)
	}
	res := ex.Run()
	if res.Errors.Total() != 0 {
		t.Fatalf("%s: workload must be clean, got %d errors", w.ID, res.Errors.Total())
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("%s: recording: %v", w.ID, err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("%s: flush: %v", w.ID, err)
	}
	return buf.Bytes()
}

func TestMetamorphicReplayFastVsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("records six workload kernels")
	}
	for _, id := range metamorphicKernels {
		w := workload.ByID(id)
		if w == nil {
			t.Fatalf("unknown kernel %s", id)
		}
		raw := recordKernel(t, w)
		for _, cfg := range []struct {
			kind     rt.Kind
			anchored bool
		}{
			{rt.GiantSan, true},
			{rt.ASan, false},
		} {
			replay := func(reference bool) (*ReplayResult, string, interface{}, string) {
				env := rt.New(rt.Config{Kind: cfg.kind, HeapBytes: w.HeapBytes, Reference: reference})
				res, err := Replay(bytes.NewReader(raw), env, cfg.anchored)
				if err != nil {
					t.Fatalf("%s/%s ref=%v: replay: %v", id, cfg.kind, reference, err)
				}
				var log bytes.Buffer
				for _, e := range res.Errors.Errors {
					log.WriteString(e.Error())
					log.WriteByte('\n')
				}
				return res, log.String(), *env.San().Stats(), shadowDigest(env)
			}
			fast, fastLog, fastStats, fastDig := replay(false)
			ref, refLog, refStats, refDig := replay(true)
			if fastDig != refDig {
				t.Errorf("%s/%s: final shadow states differ (fast %s, reference %s)", id, cfg.kind, fastDig, refDig)
			}
			if fast.Events != ref.Events {
				t.Errorf("%s/%s: fast replayed %d events, reference %d", id, cfg.kind, fast.Events, ref.Events)
			}
			if fast.Errors.Total() != ref.Errors.Total() {
				t.Errorf("%s/%s: fast logged %d errors, reference %d", id, cfg.kind,
					fast.Errors.Total(), ref.Errors.Total())
			}
			if fastLog != refLog {
				t.Errorf("%s/%s: error logs differ\nfast:\n%sreference:\n%s", id, cfg.kind, fastLog, refLog)
			}
			if fastStats != refStats {
				t.Errorf("%s/%s: stats differ\nfast: %+v\nreference: %+v", id, cfg.kind, fastStats, refStats)
			}
		}
	}
}
