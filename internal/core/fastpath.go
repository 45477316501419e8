package core

import (
	"math/bits"

	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// Fold-level lookup tables. The hot check path classifies every shadow code
// with plain array indexing instead of the branch chains in SummaryBytes /
// IsPartial / PartialK: one 256-entry table maps a code to the byte count
// its folding degree guarantees, and one 9-entry table maps "bytes used in
// the last touched segment" to the largest code that still covers them.
// Both are derived from the Definition 1 encoding at init time, so the
// reference helpers in encoding.go stay the single source of truth.

// summaryTab[c] = SummaryBytes(c): 8·2^i for an (i)-folded code, else 0.
var summaryTab = func() [256]uint64 {
	var t [256]uint64
	for c := 0; c < 256; c++ {
		t[c] = SummaryBytes(uint8(c))
	}
	return t
}()

// segLimitTab[n] is the largest state code under which the first n bytes of
// a segment are addressable (n in 0..8, where 0 stands for "all 8": it is
// indexed by end&7). Codes ≤ 64 are folded (whole segment good) and a
// k-partial code 72−k covers n ≤ k bytes, so the limit is 72−n with the
// monotonicity of Definition 1 collapsing both cases into one unsigned
// comparison: code ≤ segLimitTab[n] ⇔ the n bytes are addressable.
var segLimitTab = func() [9]uint8 {
	var t [9]uint8
	t[0] = CodeMaxFolded // n ≡ 0 (mod 8): the whole segment must be good
	for n := 1; n <= 8; n++ {
		t[n] = CodePartialBase - uint8(n)
	}
	return t
}()

// CheckRange is the specialized CI(L, R) hot path: semantically identical
// to CheckRangeRef (Algorithm 1 with the unaligned-head fix-up) but written
// for speed — bounds are established once with a single comparison pair,
// shadow bytes come through the inlinable CodeAt primitive without per-load
// revalidation, and every code classification is one table lookup plus one
// unsigned comparison instead of a branch chain. CodeAt is one page-table
// read with no branch. The common aligned in-bounds access runs load →
// table → compare with no data-dependent branching before the verdict.
// Stats counting is identical to the reference path byte for byte; the
// differential suites enforce that.
func (g *Sanitizer) CheckRange(l, r vmem.Addr, t report.AccessType) *report.Error {
	if g.ref {
		return g.CheckRangeRef(l, r, t)
	}
	g.stats.Checks++
	g.stats.RangeChecks++
	if l >= r {
		return nil
	}
	sh := g.sh
	base := sh.Base()
	ri := (r - 1 - base) >> shadow.SegShift
	// One pair of comparisons replaces both Contains probes: l ≥ base
	// bounds the range below, and the last touched segment bounds it above
	// (l's segment index cannot exceed r−1's).
	if l < base || ri >= vmem.Addr(sh.NumSegments()) {
		return g.nullOrWild(l, r-l, t)
	}
	// Head fix-up for unaligned L: the head passes iff its code is at most
	// segLimitTab[bytes used] — folded and sufficiently-partial codes sit
	// below the limit, every error code above it.
	if l&7 != 0 {
		segEnd := (l &^ 7) + 8
		headEnd := min(r, segEnd)
		g.stats.ShadowLoads++
		v := sh.CodeAt(int((l - base) >> shadow.SegShift))
		if v > segLimitTab[headEnd&7] {
			return g.fault(l, headEnd, t)
		}
		l = segEnd
		if l >= r {
			// The access ended inside the head segment; mirror the
			// reference path's near-miss record. used is headEnd&7, which
			// is non-zero here (an aligned headEnd means headEnd == segEnd
			// and the range would continue), matching endOff in the ref.
			g.nearMiss(v, int(headEnd&7))
			return nil
		}
	}

	// Fast check (Algorithm 1, lines 1–3): one load, one table lookup.
	g.stats.ShadowLoads++
	v := sh.CodeAt(int((l - base) >> shadow.SegShift))
	u := summaryTab[v]
	length := r - l
	if u >= length {
		g.stats.FastChecks++
		return nil
	}
	g.stats.SlowChecks++

	// Slow check (lines 4–14).
	if length >= 8 {
		if 2*u < length {
			return g.fault(l, r, t)
		}
		g.stats.ShadowLoads++
		if sh.CodeAt(int((r-u-base)>>shadow.SegShift)) != v {
			return g.fault(l, r, t)
		}
	}
	// Last touched segment (lines 12–14), with the reference path's exact
	// threshold expression (at r ≡ 0 mod 8 it admits any non-error code,
	// trusting the suffix-fold equality that was just verified).
	g.stats.ShadowLoads++
	last := sh.CodeAt(int(ri))
	if last > CodePartialBase-uint8(r&7) {
		return g.fault(l, r, t)
	}
	g.nearMiss(last, int(((r-1)&7)+1))
	return nil
}

// The inline fronts. GiantSan's instrumentation compiles the fast check
// and the quasi-bound comparison into the program and calls the runtime
// only when they fail; internal/interp binds these two tests in front of
// its generic check call the same way. Each returns true only for an
// access the generic call would pass on the very same lines, after
// counting exactly what that call counts; on false it has counted nothing
// and the caller makes the generic call. Both are small enough for the
// Go inliner, so a passing access costs no call at all.

// FastAnchored is the fast check of CheckAnchored(anchor, anchor+off, w, t)
// on the fast path, for w ≥ 1: the anchor is 8-aligned and in the space,
// off ≥ 0, and the fold summary at the anchor covers [anchor, anchor+off+w).
// That is CheckRange(anchor, anchor+off+w) passing Algorithm 1's lines 1–3
// with no head fix-up, so it counts Checks, RangeChecks, ShadowLoads and
// FastChecks. A summary never reaches past the object it was folded over,
// so a covered access lies in the space; in particular its end cannot wrap
// past 2^64 (the space must end below 2^64, as every rt space does). The
// caller owns the reference-path test: this is the fast path's check.
func (g *Sanitizer) FastAnchored(anchor vmem.Addr, off int64, w uint64) bool {
	// Rotating the anchor's offset right by SegShift moves an unaligned
	// anchor's low bits to the top, so one comparison with the segment
	// count refuses an unaligned anchor and one outside the space alike.
	i := bits.RotateLeft64(anchor-g.sh.Base(), -shadow.SegShift)
	if i >= uint64(g.sh.NumSegments()) || off < 0 || uint64(off)+w > summaryTab[g.sh.CodeAt(int(i))] {
		return false
	}
	g.stats.Checks++
	g.stats.RangeChecks++
	g.stats.ShadowLoads++
	g.stats.FastChecks++
	return true
}

// CacheHit is the quasi-bound comparison of CheckCached (Figure 9, line
// 3): c is a GiantSan cache holding this anchor, and the access
// [anchor+off, anchor+off+w) lies under its bound. A hit counts Checks and
// CacheHits, as CheckCached does. A miss — another checker's cache, a new
// anchor, a negative offset or an access beyond the bound — counts
// nothing and leaves the cache for CheckCached to reset, check and
// refill.
func CacheHit(c san.Cache, anchor vmem.Addr, off int64, w uint64) bool {
	b, ok := c.(*boundCache)
	if !ok || anchor != b.anchor || off < 0 || uint64(off)+w > b.ub {
		return false
	}
	b.g.stats.Checks++
	b.g.stats.CacheHits++
	return true
}
