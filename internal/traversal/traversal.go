// Package traversal implements the Figure 11 limitation study: the time
// to traverse a buffer forward, in random order, and in reverse, under
// native execution, GiantSan and ASan.
//
// The three patterns exercise the quasi-bound asymmetrically, exactly as
// §5.4 describes:
//
//   - Forward (y[j], j ascending): the quasi-bound converges to the
//     object's upper bound in ⌈log2(n/8)⌉ refills; almost every access is
//     a zero-load cache hit.
//   - Random: the bound converges to near the maximum after a handful of
//     misses; most accesses hit.
//   - Reverse (*p--, pointer descending, the idiom reverse scans compile
//     to): each dereference re-anchors at the moving pointer, so the
//     quasi-bound never survives an iteration — every access pays an
//     anchored check plus a refill, which is *more* work than ASan's
//     single-load check. GiantSan has no quasi-lower-bound to fix this
//     (the one-sided-summary limitation).
package traversal

import (
	"fmt"

	"giantsan/internal/core"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// Pattern is a traversal order.
type Pattern int

// Traversal patterns (Figure 11 a, b, c).
const (
	Forward Pattern = iota
	Random
	Reverse
)

func (p Pattern) String() string {
	switch p {
	case Forward:
		return "forward"
	case Random:
		return "random"
	default:
		return "reverse"
	}
}

// Patterns lists all three in figure order.
func Patterns() []Pattern { return []Pattern{Forward, Random, Reverse} }

// Mode selects the execution configuration.
type Mode int

// Execution modes of Figure 11, plus the §5.4 mitigation.
const (
	Native Mode = iota
	GiantSan
	ASan
	// GiantSanLB is GiantSan with the second §5.4 mitigation: before a
	// reverse traversal, the buffer's lower bound is located once by
	// enumerating folding degrees (core.LocateLowerBound), after which
	// descending accesses hit a certified window instead of re-anchoring.
	GiantSanLB
)

func (m Mode) String() string {
	switch m {
	case Native:
		return "native"
	case GiantSan:
		return "giantsan"
	case GiantSanLB:
		return "giantsan-lb"
	default:
		return "asan"
	}
}

// Modes lists the Figure 11 configurations.
func Modes() []Mode { return []Mode{Native, GiantSan, ASan} }

// ModesWithMitigation adds the §5.4 lower-bound mitigation mode.
func ModesWithMitigation() []Mode { return []Mode{Native, GiantSan, GiantSanLB, ASan} }

// Harness traverses one buffer under one mode.
type Harness struct {
	mode    Mode
	env     *rt.Env
	san     san.Sanitizer
	cache   san.Cache
	rcache  *core.ReverseCache
	space   *vmem.Space
	buf     vmem.Addr
	n       uint64 // element count (4-byte elements)
	order   []int64
	pattern Pattern
}

// New builds a harness over a fresh buffer of bufBytes bytes.
func New(mode Mode, pattern Pattern, bufBytes uint64) (*Harness, error) {
	kind := rt.GiantSan
	if mode == ASan {
		kind = rt.ASan
	}
	env := rt.New(rt.Config{Kind: kind, HeapBytes: bufBytes + (1 << 20)})
	buf, err := env.Malloc(bufBytes)
	if err != nil {
		return nil, fmt.Errorf("traversal: %w", err)
	}
	h := &Harness{
		mode:    mode,
		env:     env,
		san:     env.San(),
		cache:   env.San().NewCache(),
		space:   env.Space(),
		buf:     buf,
		n:       bufBytes / 4,
		pattern: pattern,
	}
	if mode == GiantSanLB {
		h.rcache = env.San().(*core.Sanitizer).NewReverseCache()
	}
	h.order = makeOrder(pattern, int64(h.n))
	return h, nil
}

// makeOrder precomputes the element visit order so the traffic pattern is
// identical across modes and runs.
func makeOrder(p Pattern, n int64) []int64 {
	order := make([]int64, n)
	switch p {
	case Forward:
		for i := range order {
			order[i] = int64(i)
		}
	case Reverse:
		for i := range order {
			order[i] = n - 1 - int64(i)
		}
	case Random:
		rng := uint64(0x2545f4914f6cdd1d)
		for i := range order {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			order[i] = int64(rng % uint64(n))
		}
	}
	return order
}

// Traverse performs one full pass and returns a data-dependent checksum
// (so the loop cannot be optimized away). The check sequence per mode:
//
//	native:   raw 4-byte loads;
//	giantsan: forward/random use the §4.3 quasi-bound keyed on the buffer
//	          base; reverse dereferences a moving pointer, re-anchoring
//	          the cache every access;
//	asan:     one instruction-level check (one shadow load) per access.
func (h *Harness) Traverse() uint64 {
	var sum uint64
	switch h.mode {
	case Native:
		for _, j := range h.order {
			sum += h.space.Load(h.buf+vmem.Addr(j*4), 4)
		}
	case GiantSan:
		if h.pattern == Reverse {
			// Moving-pointer idiom: anchor = current pointer.
			for _, j := range h.order {
				p := h.buf + vmem.Addr(j*4)
				if err := h.cache.CheckCached(p, 0, 4, report.Read); err == nil {
					sum += h.space.Load(p, 4)
				}
			}
		} else {
			for _, j := range h.order {
				if err := h.cache.CheckCached(h.buf, j*4, 4, report.Read); err == nil {
					sum += h.space.Load(h.buf+vmem.Addr(j*4), 4)
				}
			}
			_ = h.cache.Finish(h.buf, report.Read)
		}
	case GiantSanLB:
		// Mitigated moving-pointer traversal: certified window instead of
		// per-access re-anchoring.
		for _, j := range h.order {
			p := h.buf + vmem.Addr(j*4)
			if err := h.rcache.Check(p, 4, report.Read); err == nil {
				sum += h.space.Load(p, 4)
			}
		}
		_ = h.rcache.Finish(report.Read)
	case ASan:
		for _, j := range h.order {
			p := h.buf + vmem.Addr(j*4)
			if err := h.san.CheckAccess(p, 4, report.Read); err == nil {
				sum += h.space.Load(p, 4)
			}
		}
	}
	return sum
}

// Stats exposes the sanitizer counters (nil in native mode is fine: the
// counters simply stay zero).
func (h *Harness) Stats() *san.Stats { return h.san.Stats() }

// SanStats exposes the live sanitizer counters of the harness runtime, so
// the figure driver can derive hardware-independent virtual timings (per-
// pass check and metadata-load counts) alongside the wall clock.
func (h *Harness) SanStats() *san.Stats { return h.san.Stats() }

// Elems returns the number of 4-byte elements one pass visits.
func (h *Harness) Elems() uint64 { return h.n }
