package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"giantsan/internal/service"
)

// span is one timed interval of a session, or a mark when start == end.
type span struct {
	Name    string `json:"name"`
	Session string `json:"session"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, session, parent string, start, end time.Time) {
	s := span{Name: name, Session: session, Parent: parent,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) mark(name, session string) {
	now := time.Now()
	t.add(name, session, "", now, now)
}

// record is one traced session as its client saw it.
type record struct {
	session   string
	in        *input
	reqBytes  int
	respBytes int
	resp      *service.Response
}

// sample is one answered request: when it completed, counted from the
// start of the phase, its round trip, and whether it passed the gate.
type sample struct {
	at, lat time.Duration
	ok      bool
	kind    string
}

// loadResult is what one closed-loop phase measured.
type loadResult struct {
	samples   []sample
	attempted int
	failed    int
	reasons   []string // the first few failure reasons
	elapsed   time.Duration
	records   []record // traced phases only
}

// drive runs every client's closed loop against url for dur, starting
// each client at its own position in its order. With tr non-nil each
// request carries a fresh session ID as its tenant, the client records a
// round_trip span, and the result keeps one record per session.
func drive(url string, set *inputSet, clients []*client, start []int, dur time.Duration, tr *tracer) loadResult {
	results := make([]loadResult, len(clients))
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			order := set.orders[c]
			var buf []byte
			for i := start[c]; time.Now().Before(deadline); i++ {
				in := set.inputs[order[i%len(order)]]
				body, session := in.body, ""
				if tr != nil {
					session = fmt.Sprintf("c%d-%d", c, i)
					buf = withTenant(buf[:0], in.body, session)
					body = buf
				}
				res.attempted++
				t := time.Now()
				status, reply, err := clients[c].post(url, body)
				end := time.Now()
				if err != nil {
					res.fail(fmt.Sprintf("transport: %v", err))
					continue
				}
				resp, err := verify(in, status, reply)
				res.samples = append(res.samples, sample{at: end.Sub(t0), lat: end.Sub(t), ok: err == nil, kind: in.kind})
				if err != nil {
					res.fail(err.Error())
					continue
				}
				if tr != nil {
					tr.add("round_trip", session, "", t, end)
					res.records = append(res.records, record{session: session, in: in,
						reqBytes: len(body), respBytes: len(reply), resp: resp})
				}
			}
			start[c] += res.attempted
		}(c)
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(t0)}
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.records = append(out.records, r.records...)
		for _, why := range r.reasons {
			if len(out.reasons) < 5 {
				out.reasons = append(out.reasons, why)
			}
		}
	}
	return out
}

// withTenant appends to dst the marshaled request body with a tenant
// field added. Splicing instead of marshaling again keeps the client's
// work between two requests the same in traced and untraced phases.
func withTenant(dst, body []byte, tenant string) []byte {
	dst = append(dst, body[:len(body)-1]...) // drop the closing brace
	dst = append(dst, `,"tenant":"`...)
	dst = append(dst, tenant...)
	return append(dst, `"}`...)
}

func (r *loadResult) fail(why string) {
	r.failed++
	if len(r.reasons) < 5 {
		r.reasons = append(r.reasons, why)
	}
}

// lats returns the round trips of every answered request.
func (r *loadResult) lats() []time.Duration {
	out := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.lat
	}
	return out
}

// kindQuantile returns the q-quantile of each kind's round trips in
// milliseconds, averaged over the kinds. Every kind weighs the same, as it
// does in the session order. A quantile of the pooled round trips would
// instead sit between two kernels' clusters whenever q falls on their
// border, and jump from one to the other as the mix of a run shifts by a
// session.
func (r *loadResult) kindQuantile(q float64) float64 {
	byKind := map[string][]time.Duration{}
	for _, s := range r.samples {
		byKind[s.kind] = append(byKind[s.kind], s.lat)
	}
	var qs []float64
	for _, ds := range byKind {
		qs = append(qs, quantile(sortedMs(ds), q))
	}
	return mean(qs)
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; xs must be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	sort.Float64s(xs)
	return xs
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
