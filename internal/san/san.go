// Package san defines the contracts shared by every sanitizer in this
// module: shadow poisoning, runtime checking, history caching, and the
// counters the evaluation harness reads.
//
// The split mirrors the paper's architecture (Figure 4): the runtime support
// library (allocators in internal/heap and internal/stack) drives the
// Poisoner side, and instrumented code (internal/instrument + internal/interp)
// drives the Checker side. GiantSan, ASan, ASan--, and LFP all implement
// Sanitizer, so the whole evaluation harness is sanitizer-agnostic.
package san

import (
	"math/bits"

	"giantsan/internal/report"
	"giantsan/internal/vmem"
)

// PoisonKind says why a range of bytes is being made non-addressable.
// Each sanitizer encoding maps kinds to its own shadow error codes.
type PoisonKind int

// Poison kinds.
const (
	// RedzoneLeft marks padding below a heap object.
	RedzoneLeft PoisonKind = iota
	// RedzoneRight marks padding above a heap object.
	RedzoneRight
	// HeapFreed marks a freed (quarantined) heap region.
	HeapFreed
	// StackRedzone marks padding around a stack object.
	StackRedzone
	// StackAfterReturn marks a popped stack frame.
	StackAfterReturn
	// GlobalRedzone marks padding around a global object.
	GlobalRedzone
)

// Poisoner updates shadow metadata. The allocators call it on every
// allocation and deallocation, which is exactly the paper's "runtime support
// library hooks all objects' allocation and deallocation" phase.
type Poisoner interface {
	// MarkAllocated makes [base, base+size) addressable. This is where the
	// encodings diverge: ASan zero-fills, GiantSan builds folded segments.
	MarkAllocated(base vmem.Addr, size uint64)
	// Poison makes [base, base+size) non-addressable for the given reason.
	// base and size are segment-aligned by the allocators, except that a
	// trailing sub-segment tail is owned by the object's partial segment.
	Poison(base vmem.Addr, size uint64, kind PoisonKind)
}

// ChunkPoisoner is an optional Poisoner extension for the allocation fast
// lane: poisoners that can stamp a whole chunk layout — left redzone,
// allocated region (fold ladder + partial tail), right redzone — in one
// templated sweep implement it. PoisonChunk must be observably identical
// (shadow bytes and Stats) to the three-call sequence
//
//	Poison(start, leftRZ, left)
//	MarkAllocated(start+leftRZ, userSize)
//	Poison(start+leftRZ+alignUp8(userSize), rightRZ, right)
//
// which the allocators fall back to when the poisoner lacks the extension,
// and which the differential suites enforce. leftRZ and rightRZ are 8-byte
// multiples (allocator-guaranteed, like base alignment).
type ChunkPoisoner interface {
	PoisonChunk(start vmem.Addr, leftRZ, userSize, rightRZ uint64, left, right PoisonKind)
}

// FramePoisoner is the stack-side batching extension: PoisonFrame stamps a
// whole function frame — locals laid out back to back, each as
// [redzone][local][alignment tail][redzone] — in one templated sweep
// starting at start. It must be observably identical to one PoisonChunk per
// local with StackRedzone on both sides (the per-local fallback the stack
// allocator uses otherwise). A size of 0 is promoted to 1, matching the
// stack allocator's Alloca.
type FramePoisoner interface {
	PoisonFrame(start vmem.Addr, rz uint64, sizes []uint64)
}

// Checker performs runtime checks. All checks return nil for a safe access
// and a *report.Error otherwise; they never halt (halt_on_error=false).
type Checker interface {
	// CheckAccess safeguards one instruction touching [p, p+w), w ≤ 8.
	// This is instruction-level protection.
	CheckAccess(p vmem.Addr, w uint64, t report.AccessType) *report.Error
	// CheckRange safeguards the region [l, r). This is the operation-level
	// entry point (memset/memcpy guardians, promoted loop checks). Cost is
	// the differentiator: O(1) for GiantSan, O((r−l)/8) for ASan.
	CheckRange(l, r vmem.Addr, t report.AccessType) *report.Error
	// CheckAnchored safeguards an access [p, p+w) relative to the anchor
	// (usually the buffer base pointer, §4.4.1). Sanitizers without
	// anchor support fall back to CheckAccess(p, w).
	CheckAnchored(anchor, p vmem.Addr, w uint64, t report.AccessType) *report.Error
}

// Cache is a per-pointer history cache (the quasi-bound of §4.3).
// Instrumented unbounded loops allocate one Cache per base pointer and call
// CheckCached for every access. Sanitizers without history caching return a
// pass-through implementation.
type Cache interface {
	// CheckCached safeguards [anchor+off, anchor+off+w). off may be
	// negative (underflow side, never cached).
	CheckCached(anchor vmem.Addr, off int64, w uint64, t report.AccessType) *report.Error
	// Finish performs the loop-exit check (e.g. CI(y, y+ub) catching a
	// deallocation that happened mid-loop) and resets the cache.
	Finish(anchor vmem.Addr, t report.AccessType) *report.Error
}

// ReferencePath is implemented by sanitizers that keep their
// pre-optimization implementations alongside the specialized hot paths.
// Flipping the switch routes every check AND every poisoner call through
// the reference code (CheckRangeRef / MarkAllocatedRef / PoisonRef); the
// two paths are observably identical (verdicts, error reports, shadow
// bytes, Stats), which the differential suites enforce. The harness uses
// it to run whole workloads under either path and to benchmark the
// speedup.
type ReferencePath interface {
	// SetReference selects the reference (true) or specialized (false) path.
	SetReference(on bool)
	// Reference reports which path is selected.
	Reference() bool
}

// Resetter is the arena-recycling extension: sanitizers whose state can be
// returned to the freshly-constructed condition without reallocating the
// shadow implement it, which is what lets the service layer pool runtime
// environments instead of rebuilding them per session.
//
// Reset drops the shadow's copy-on-write overlay, returning the whole
// shadow to the pristine base image in O(dirty pages), and zeroes the
// Stats; it bills no counters itself. The contract is differential: after
// Reset the sanitizer must be observably identical — shadow bytes and
// Stats — to a freshly built instance over the same space.
// internal/rt's reset differential suite enforces this for every
// sanitizer kind, so pooling can never leak one tenant's poison into the
// next.
type Resetter interface {
	Reset()
}

// Sanitizer is a complete location-based (or, for LFP, bounds-based) memory
// error detector.
type Sanitizer interface {
	Name() string
	Poisoner
	Checker
	// NewCache returns a fresh history cache bound to this sanitizer.
	NewCache() Cache
	// Stats returns the live counters; the harness reads and resets them.
	Stats() *Stats
}

// Stats counts the runtime work a sanitizer performed. The evaluation
// harness uses these to reproduce Figure 10 and to cross-check the timing
// results of Table 2 with hardware-independent numbers.
//
// The JSON field tags are a stable wire schema: the service layer's
// session responses and /metrics endpoint, and the BENCH_*.json
// artifacts, all serialize these counters, so the names must not drift
// with Go identifier renames. TestStatsJSONRoundTrip pins them.
type Stats struct {
	// Checks is the number of runtime checks executed.
	Checks uint64 `json:"checks"`
	// ShadowLoads is the number of shadow-memory (metadata) loads.
	ShadowLoads uint64 `json:"shadow_loads"`
	// ShadowStores is the number of shadow-memory (metadata) segment
	// writes the poisoners performed — one per segment touched, the
	// write-side twin of ShadowLoads. Like ShadowLoads on the wide-scan
	// read path, the count is the reference cost model's: the fast lane
	// bills the same conceptual per-segment stores it replaces with word
	// stores and template copies, so the counter is identical across the
	// fast and reference paths. Unlike the checker counters, poisoner
	// calls may run concurrently (the allocators poison outside their
	// locks — each chunk's shadow is disjoint), so implementations update
	// this field atomically.
	ShadowStores uint64 `json:"shadow_stores"`
	// FastChecks counts GiantSan region checks satisfied by the fast path.
	FastChecks uint64 `json:"fast_checks"`
	// SlowChecks counts GiantSan region checks needing the slow path.
	SlowChecks uint64 `json:"slow_checks"`
	// CacheHits counts accesses satisfied by a quasi-bound without any
	// metadata load.
	CacheHits uint64 `json:"cache_hits"`
	// CacheRefills counts quasi-bound reloads.
	CacheRefills uint64 `json:"cache_refills"`
	// RangeChecks counts operation-level region checks.
	RangeChecks uint64 `json:"range_checks"`
	// Errors counts checks that reported a violation.
	Errors uint64 `json:"errors"`
	// NearMisses counts passing checks whose final touched segment was a
	// partial segment — the access ended within 8 bytes of poisoned
	// memory. It is the greybox fuzzer's redzone-proximity feedback
	// signal: a run that grazes a boundary without crossing it is more
	// promising mutation material than one that stays deep in bounds.
	// The counter is recorded only on shadow codes the check already
	// loaded, so the checkers pay no extra metadata traffic for it, and
	// it is updated identically on the fast and reference paths (the
	// differential suites compare whole Stats structs).
	NearMisses uint64 `json:"near_misses"`
	// NearMissMask records which near-miss distances occurred: bit d is
	// set when some passing access ended exactly d bytes short of the
	// first non-addressable byte of its final segment (d in 0..6; a
	// distance of 0 means the access touched the very last addressable
	// byte). A set-of-distances composes where a raw minimum could not:
	// Add ORs the masks, and Sub keeps the bits newly set in s —
	// so the per-run delta the interpreter snapshots (after.Sub(before))
	// reports exactly the distances that run produced. The minimum
	// distance is the mask's lowest set bit.
	NearMissMask uint64 `json:"near_miss_mask"`
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Checks += other.Checks
	s.ShadowLoads += other.ShadowLoads
	s.ShadowStores += other.ShadowStores
	s.FastChecks += other.FastChecks
	s.SlowChecks += other.SlowChecks
	s.CacheHits += other.CacheHits
	s.CacheRefills += other.CacheRefills
	s.RangeChecks += other.RangeChecks
	s.Errors += other.Errors
	s.NearMisses += other.NearMisses
	s.NearMissMask |= other.NearMissMask
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// Sub returns the counter-wise difference s − other, for deltas between
// two snapshots taken around a run.
func (s *Stats) Sub(other *Stats) Stats {
	return Stats{
		Checks:       s.Checks - other.Checks,
		ShadowLoads:  s.ShadowLoads - other.ShadowLoads,
		ShadowStores: s.ShadowStores - other.ShadowStores,
		FastChecks:   s.FastChecks - other.FastChecks,
		SlowChecks:   s.SlowChecks - other.SlowChecks,
		CacheHits:    s.CacheHits - other.CacheHits,
		CacheRefills: s.CacheRefills - other.CacheRefills,
		RangeChecks:  s.RangeChecks - other.RangeChecks,
		Errors:       s.Errors - other.Errors,
		NearMisses:   s.NearMisses - other.NearMisses,
		// The mask is a set, not a sum: the delta keeps the distances
		// newly observed in s beyond what other had already seen.
		NearMissMask: s.NearMissMask &^ other.NearMissMask,
	}
}

// MinNearMiss returns the smallest distance in the near-miss mask — how
// close, in bytes, the closest passing access came to poisoned memory —
// and false when the snapshot recorded no near miss at all.
func (s *Stats) MinNearMiss() (int, bool) {
	if s.NearMissMask == 0 {
		return 0, false
	}
	return bits.TrailingZeros64(s.NearMissMask), true
}

// Clone returns an independent copy of the counters. Callers that hold a
// live *Stats from Sanitizer.Stats must clone before handing the snapshot
// to another goroutine: the sanitizer keeps mutating its own counters.
func (s *Stats) Clone() *Stats {
	c := *s
	return &c
}

// PassCache is the degenerate history cache used by sanitizers without
// quasi-bound support: every access pays a plain anchored check, nothing is
// ever satisfied from cache. It still tracks the extent the loop proved
// addressable so that Finish can replay the loop-exit hazard check (§4.3):
// without it, an object freed mid-loop after its accesses were checked
// would slip past the baseline sanitizers even though GiantSan's boundCache
// catches the same trace, and the differential harness would disagree on
// verdicts for reasons unrelated to the encodings.
type PassCache struct {
	S Sanitizer
	// anchor/ub mirror boundCache: ub is the largest off+w a successful
	// non-negative cached check proved addressable from anchor.
	anchor vmem.Addr
	ub     uint64
}

// CheckCached implements Cache by delegating to CheckAnchored.
func (c *PassCache) CheckCached(anchor vmem.Addr, off int64, w uint64, t report.AccessType) *report.Error {
	if anchor != c.anchor {
		c.anchor = anchor
		c.ub = 0
	}
	p := anchor + vmem.Addr(off)
	err := c.S.CheckAnchored(anchor, p, w, t)
	if err == nil && off >= 0 && uint64(off)+w > c.ub {
		c.ub = uint64(off) + w
	}
	return err
}

// Finish implements Cache: re-validate the extent the loop relied on, so a
// mid-loop deallocation of the anchor's object is reported at loop exit,
// then reset for reuse.
func (c *PassCache) Finish(anchor vmem.Addr, t report.AccessType) *report.Error {
	ub := c.ub
	c.ub = 0
	if ub == 0 || anchor != c.anchor {
		return nil
	}
	return c.S.CheckRange(anchor, anchor+vmem.Addr(ub), t)
}
