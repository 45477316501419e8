package canary

import (
	"fmt"
	"hash/fnv"
	"strings"

	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/trace"
	"giantsan/internal/vmem"
)

// maxLoggedErrors bounds the rendered error log carried in an
// Observation; the totals are still exact.
const maxLoggedErrors = 64

// Observation is everything one replay leg exposes to the differ. Two
// legs over the same trace and config must produce identical
// Observations unless the sanitizer's fast and reference paths have
// drifted (or a plant is installed).
type Observation struct {
	// Events is how many trace events replayed.
	Events int `json:"events"`
	// Accesses counts dynamic access and range events, the replay
	// analogue of the interpreter's access counter (feeds the virtual
	// cost model in the bench layer).
	Accesses uint64 `json:"accesses"`
	// ErrorTotal is the verdict: how many violations were reported.
	ErrorTotal int `json:"error_total"`
	// ErrorLog is the rendered reports, newline-joined, capped at
	// maxLoggedErrors.
	ErrorLog string `json:"error_log,omitempty"`
	// Stats is the sanitizer's counter state after the replay.
	Stats san.Stats `json:"stats"`
	// ShadowDigest is an FNV-64a hash of the final shadow image, hex;
	// empty when the sanitizer does not expose its shadow.
	ShadowDigest string `json:"shadow_digest,omitempty"`
}

// OracleObservation is the ground-truth leg: the byte-granular oracle's
// count of events that touched non-addressable memory or freed dead
// objects. It is compared at verdict level only — the oracle has no
// stats or shadow to diff.
type OracleObservation struct {
	Violations int `json:"violations"`
	// First describes the first violating event, for artifact readers.
	First string `json:"first,omitempty"`
}

// Divergence describes one canary discrepancy.
type Divergence struct {
	// Kind orders the comparison: "events", "verdict", "error-log",
	// "stats", "shadow", "oracle-false-negative", "oracle-false-positive".
	Kind string `json:"kind"`
	// Detail is a human-readable account of the mismatch.
	Detail string `json:"detail"`
}

func (d *Divergence) String() string {
	if d == nil {
		return "none"
	}
	return d.Kind + ": " + d.Detail
}

// sanLeg replays events on a fresh runtime per cfg, with the reference
// path on or off, wrapping the runtime with plant when non-nil (fast leg
// only). The observation is always collected from the unwrapped
// environment, so a plant can only corrupt check behaviour, never the
// measurement. Replay-level failures (a candidate that does not decode
// or replay, or a panic from a pathological subsequence) return an
// error: the candidate is invalid, not divergent.
func sanLeg(events []trace.Event, cfg Config, reference bool, plant Plant) (obs Observation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("canary: replay panic: %v", r)
		}
	}()
	env := rt.New(rt.Config{Kind: cfg.Kind, HeapBytes: cfg.HeapBytes, Reference: reference})
	run := rt.Runtime(env)
	if plant != nil {
		run = plant.Wrap(run)
	}
	res, err := trace.ReplayEvents(events, run, cfg.Kind == rt.GiantSan)
	if err != nil {
		return Observation{}, err
	}
	obs = Observation{
		Events:     res.Events,
		Accesses:   countAccesses(events),
		ErrorTotal: res.Errors.Total(),
		Stats:      *env.San().Stats(),
	}
	var log strings.Builder
	for i, e := range res.Errors.Errors {
		if i >= maxLoggedErrors {
			break
		}
		if i > 0 {
			log.WriteByte('\n')
		}
		log.WriteString(e.Error())
	}
	obs.ErrorLog = log.String()
	if sh, ok := env.San().(interface{ Shadow() *shadow.Memory }); ok {
		h := fnv.New64a()
		m := sh.Shadow()
		h.Write(m.Snapshot(0, m.NumSegments()))
		obs.ShadowDigest = fmt.Sprintf("%016x", h.Sum64())
	}
	return obs, nil
}

// oracleLeg replays events against a ground-truth-only runtime: every
// access and range is judged by the byte-granular oracle, every free by
// object liveness, with no sanitizer verdict involved.
func oracleLeg(events []trace.Event, cfg Config) (obs OracleObservation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("canary: oracle replay panic: %v", r)
		}
	}()
	env := rt.New(rt.Config{Kind: cfg.Kind, HeapBytes: cfg.HeapBytes, WithOracle: true})
	orc := env.Oracle()
	regs := map[uint32]vmem.Addr{}
	frames := 0
	flag := func(idx int, format string, args ...any) {
		obs.Violations++
		if obs.First == "" {
			obs.First = fmt.Sprintf("event %d: %s", idx+1, fmt.Sprintf(format, args...))
		}
	}
	for i, ev := range events {
		switch ev.Op {
		case trace.OpMalloc:
			p, merr := env.Malloc(ev.Size)
			if merr != nil {
				return obs, fmt.Errorf("canary: oracle event %d: %w", i+1, merr)
			}
			regs[ev.Reg] = p
		case trace.OpAlloca:
			if frames == 0 {
				return obs, fmt.Errorf("canary: oracle event %d: alloca outside frame", i+1)
			}
			p, aerr := env.Alloca(ev.Size)
			if aerr != nil {
				return obs, fmt.Errorf("canary: oracle event %d: %w", i+1, aerr)
			}
			regs[ev.Reg] = p
		case trace.OpFree:
			p, ok := regs[ev.Reg]
			if !ok {
				return obs, fmt.Errorf("canary: oracle event %d: free of unset reg %d", i+1, ev.Reg)
			}
			if obj := orc.Object(p); obj == nil || !obj.Live {
				flag(i, "free of dead object at %#x", p)
			}
			env.Free(p)
		case trace.OpAccess:
			base, ok := regs[ev.Reg]
			if !ok {
				return obs, fmt.Errorf("canary: oracle event %d: access through unset reg %d", i+1, ev.Reg)
			}
			p := base + vmem.Addr(ev.Off)
			if !orc.Addressable(p, uint64(ev.Width)) {
				flag(i, "access of size %d at %#x not addressable", ev.Width, p)
			}
		case trace.OpRange:
			base, ok := regs[ev.Reg]
			if !ok {
				return obs, fmt.Errorf("canary: oracle event %d: range through unset reg %d", i+1, ev.Reg)
			}
			l := base + vmem.Addr(ev.Off)
			if ev.Size > 0 && !orc.Addressable(l, ev.Size) {
				flag(i, "range of size %d at %#x not addressable", ev.Size, l)
			}
		case trace.OpPush:
			env.PushFrame()
			frames++
		case trace.OpPop:
			if frames == 0 {
				return obs, fmt.Errorf("canary: oracle event %d: pop without push", i+1)
			}
			env.PopFrame()
			frames--
		default:
			return obs, fmt.Errorf("canary: oracle event %d: unknown opcode %d", i+1, ev.Op)
		}
	}
	return obs, nil
}

// countAccesses counts the dynamic access and range events.
func countAccesses(events []trace.Event) uint64 {
	var n uint64
	for _, ev := range events {
		if ev.Op == trace.OpAccess || ev.Op == trace.OpRange {
			n++
		}
	}
	return n
}

// TripleReplay runs one trace under the fast path (plant applied, if
// any), the reference path, and the oracle, each on a fresh runtime. An
// error means the trace itself is invalid (shrink candidates routinely
// are), not that the legs diverged.
func TripleReplay(events []trace.Event, cfg Config, plant Plant) (fast, ref Observation, orc OracleObservation, err error) {
	if fast, err = sanLeg(events, cfg, false, plant); err != nil {
		return
	}
	if ref, err = sanLeg(events, cfg, true, nil); err != nil {
		return
	}
	orc, err = oracleLeg(events, cfg)
	return
}

// Diff compares the three legs. Comparison order is most- to
// least-actionable: replay shape, verdict, rendered reports, counters,
// shadow image, then the oracle's verdict-level cross-check (the oracle
// has no counters to compare). Returns nil when everything agrees.
func Diff(fast, ref Observation, orc OracleObservation) *Divergence {
	switch {
	case fast.Events != ref.Events:
		return &Divergence{"events", fmt.Sprintf("fast replayed %d events, reference %d", fast.Events, ref.Events)}
	case fast.ErrorTotal != ref.ErrorTotal:
		return &Divergence{"verdict", fmt.Sprintf("fast reported %d errors, reference %d", fast.ErrorTotal, ref.ErrorTotal)}
	case fast.ErrorLog != ref.ErrorLog:
		return &Divergence{"error-log", fmt.Sprintf("report text differs:\nfast:\n%s\nreference:\n%s", fast.ErrorLog, ref.ErrorLog)}
	case fast.Stats != ref.Stats:
		return &Divergence{"stats", fmt.Sprintf("counters differ: fast %+v, reference %+v", fast.Stats, ref.Stats)}
	case fast.ShadowDigest != ref.ShadowDigest:
		return &Divergence{"shadow", fmt.Sprintf("final shadow differs: fast %s, reference %s", fast.ShadowDigest, ref.ShadowDigest)}
	case orc.Violations > 0 && fast.ErrorTotal == 0:
		return &Divergence{"oracle-false-negative", fmt.Sprintf("oracle saw %d violations (%s), sanitizer reported none", orc.Violations, orc.First)}
	case orc.Violations == 0 && fast.ErrorTotal > 0:
		return &Divergence{"oracle-false-positive", fmt.Sprintf("sanitizer reported %d errors on an oracle-clean trace:\n%s", fast.ErrorTotal, fast.ErrorLog)}
	}
	return nil
}
