package core

import (
	"sync/atomic"

	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// Sanitizer is the GiantSan runtime: the folded-segment shadow encoding
// plus the constant-time region check of Algorithm 1. It implements
// san.Sanitizer.
type Sanitizer struct {
	sh    *shadow.Memory
	stats san.Stats
	// ref routes CheckRange/CheckAccess through the reference (pre-
	// optimization) implementation instead of the specialized fast path.
	// Both paths are observably identical — same verdicts, same error
	// reports, same Stats — which the differential suites prove; the flag
	// exists so whole workloads can run under either path.
	ref bool
}

// New returns a GiantSan instance over sp. The entire space starts
// non-addressable (code CodeUnallocated) until allocators mark regions.
// The shadow is the base image with every page already private, so the
// allocators may poison disjoint chunks concurrently (see shadow.New).
func New(sp *vmem.Space) *Sanitizer {
	return &Sanitizer{sh: shadow.New(BaseImage(sp))}
}

// BaseImage returns the pristine shadow image of a GiantSan instance over
// sp, the state New and Fork start from. Uniform (everything
// CodeUnallocated), so the snapshot costs one overlay page regardless of
// the space size.
func BaseImage(sp *vmem.Space) *shadow.Image {
	return shadow.NewUniformImage(sp.Base(), int(sp.Size()>>shadow.SegShift), CodeUnallocated)
}

// Fork returns a GiantSan instance whose shadow is a lazy copy-on-write
// fork of img (which must come from BaseImage over an identically-shaped
// space). Observably identical to New — the reset differential suite
// proves it — but construction writes no shadow bytes, and resident shadow
// grows only with the pages the workload dirties. Forked instances inherit
// the single-goroutine contract of shadow.Fork.
func Fork(img *shadow.Image) *Sanitizer {
	return &Sanitizer{sh: shadow.Fork(img)}
}

// Name implements san.Sanitizer.
func (g *Sanitizer) Name() string { return "giantsan" }

// Reset implements san.Resetter: the whole shadow snaps back to the
// pristine base image in O(dirty pages) and the counters are zeroed.
// Unlike Poison it bills no ShadowStores — recycling is arena
// maintenance, not sanitizer work the cost model should see.
func (g *Sanitizer) Reset() {
	g.sh.DropOverlay()
	g.stats.Reset()
}

// Stats implements san.Sanitizer.
func (g *Sanitizer) Stats() *san.Stats { return &g.stats }

// Shadow exposes the shadow memory for tests and the shadowviz tool.
func (g *Sanitizer) Shadow() *shadow.Memory { return g.sh }

// SetReference implements san.ReferencePath: when on, every check runs the
// reference implementation (CheckRangeRef) instead of the fast path, and
// every poisoner call runs the reference writers (MarkAllocatedRef /
// PoisonRef) instead of the templated fast lane.
func (g *Sanitizer) SetReference(on bool) { g.ref = on }

// Reference implements san.ReferencePath.
func (g *Sanitizer) Reference() bool { return g.ref }

// load is the counted shadow-memory read: one call is one metadata load in
// the paper's cost model.
func (g *Sanitizer) load(a vmem.Addr) uint8 {
	g.stats.ShadowLoads++
	return g.sh.Load(a)
}

// MarkAllocatedRef is the reference implementation of the folded-segment
// poisoner: it builds the summary over [base, base+size) (§4.1). base must
// be 8-byte aligned (guaranteed by the allocators).
//
// The Figure 5 pattern is run-length structured — degree d repeats for
// ~2^d consecutive segments — so the write decomposes into O(log n)
// block fills. That keeps poisoning at memset speed, backing the paper's
// claim that the richer encoding "does not take extra computation" over
// ASan's zero-fill.
//
// This is the pre-optimization write path, kept verbatim (plus the
// ShadowStores accounting shared with the fast lane) and exported so the
// differential suites can prove the templated MarkAllocated byte-identical
// to it.
func (g *Sanitizer) MarkAllocatedRef(base vmem.Addr, size uint64) {
	if size == 0 {
		return
	}
	q := int(size >> shadow.SegShift) // full segments
	rem := int(size & 7)
	l := g.sh.Index(base)
	j := 0
	for j < q {
		d := DegreeAt(q, j)
		// Degree d holds while q−j' ∈ [2^d, 2^(d+1)), i.e. up to and
		// including j' = q − 2^d.
		runLen := q - (1 << d) - j + 1
		g.sh.Fill(l+j, runLen, FoldedCode(d))
		j += runLen
	}
	if rem > 0 {
		g.sh.StoreSeg(l+q, PartialCode(rem))
	}
	atomic.AddUint64(&g.stats.ShadowStores, markSegStores(q, rem))
}

// markSegStores is the conceptual store count of marking q full segments
// plus an optional partial tail — one store per segment touched, identical
// across the fast and reference paths.
func markSegStores(q, rem int) uint64 {
	n := uint64(q)
	if rem > 0 {
		n++
	}
	return n
}

// MarkAllocated implements san.Poisoner. The fast lane stamps a memoized
// fold template (template.go); the reference path recomputes the ladder
// per call.
func (g *Sanitizer) MarkAllocated(base vmem.Addr, size uint64) {
	if g.ref {
		g.MarkAllocatedRef(base, size)
		return
	}
	if size == 0 {
		return
	}
	q := int(size >> shadow.SegShift)
	rem := int(size & 7)
	g.markSegsFast(g.sh.Index(base), q, rem)
}

// poisonCode maps allocator poison reasons to shadow error codes.
func poisonCode(kind san.PoisonKind) uint8 {
	switch kind {
	case san.RedzoneLeft:
		return CodeRedzoneLeft
	case san.RedzoneRight:
		return CodeRedzoneRight
	case san.HeapFreed:
		return CodeHeapFreed
	case san.StackRedzone:
		return CodeStackRedzone
	case san.StackAfterReturn:
		return CodeStackRetired
	case san.GlobalRedzone:
		return CodeGlobalRZ
	default:
		return CodeUnallocated
	}
}

// errorKind maps a shadow error code (or partial-segment violation) to a
// report kind.
func errorKind(code uint8) report.Kind {
	switch code {
	case CodeRedzoneLeft:
		return report.HeapBufferUnderflow
	case CodeRedzoneRight:
		return report.HeapBufferOverflow
	case CodeHeapFreed:
		return report.UseAfterFree
	case CodeStackRedzone:
		return report.StackBufferOverflow
	case CodeStackRetired:
		return report.UseAfterReturn
	case CodeGlobalRZ:
		return report.GlobalBufferOverflow
	case CodeUnallocated:
		return report.WildAccess
	default:
		// A partial-segment violation: the access ran off the end of the
		// object into its alignment tail.
		return report.HeapBufferOverflow
	}
}

// PoisonRef is the reference implementation of the error-code poisoner:
// one byte store per segment. base and size are segment-aligned by the
// allocators (redzones and reserved regions are multiples of 8). Kept
// exported for the differential suites, like MarkAllocatedRef.
func (g *Sanitizer) PoisonRef(base vmem.Addr, size uint64, kind san.PoisonKind) {
	if size == 0 {
		return
	}
	code := poisonCode(kind)
	l := g.sh.Index(base)
	n := int((size + 7) >> shadow.SegShift)
	g.sh.Fill(l, n, code)
	atomic.AddUint64(&g.stats.ShadowStores, uint64(n))
}

// Poison implements san.Poisoner. The fast lane retires 8 segments per
// machine store (shadow.Fill64); the reference path fills byte by byte.
func (g *Sanitizer) Poison(base vmem.Addr, size uint64, kind san.PoisonKind) {
	if g.ref {
		g.PoisonRef(base, size, kind)
		return
	}
	if size == 0 {
		return
	}
	code := poisonCode(kind)
	l := g.sh.Index(base)
	n := int((size + 7) >> shadow.SegShift)
	g.sh.Fill64(l, n, code)
	atomic.AddUint64(&g.stats.ShadowStores, uint64(n))
}

// fault builds the error report for a failed check over [l, r): the
// first byte the walk finds unaddressable, and the reason its segment
// gives. Errors are rare, so the walk favours exactness over the O(1)
// check, but it still reads shadow the way the encoding is laid out — one
// segment at a time, never one byte at a time: a folded segment is
// skipped whole, a k-partial one fails at its byte k (or at l, when l
// starts past it), and any other code fails at the first byte visited.
// The shadow reads are uncounted, so a report moves no Stats besides
// Errors. Segment-wide Contains is exact because spaces are 8-aligned.
func (g *Sanitizer) fault(l, r vmem.Addr, t report.AccessType) *report.Error {
	g.stats.Errors++
	for a := l; a < r; {
		if !g.sh.Contains(a) {
			return &report.Error{Kind: report.WildAccess, Access: t, Addr: a, Size: r - l, Detector: g.Name()}
		}
		seg := a &^ 7
		code := g.sh.Load(a)
		switch {
		case code <= CodeMaxFolded:
		case IsPartial(code):
			if bad := max(a, seg+vmem.Addr(PartialK(code))); bad < r {
				return &report.Error{Kind: errorKind(code), Access: t, Addr: bad, Size: r - l, Detector: g.Name()}
			}
		default:
			return &report.Error{Kind: errorKind(code), Access: t, Addr: a, Size: r - l, Detector: g.Name()}
		}
		if seg+8 < a {
			break // the segment ends the address space
		}
		a = seg + 8
	}
	// The fast/slow check rejected a region the walk finds clean. That
	// cannot happen if the encoding invariants hold; report it as a wild
	// access rather than hiding it.
	return &report.Error{Kind: report.WildAccess, Access: t, Addr: l, Size: r - l, Detector: g.Name(), Context: "check/encoding disagreement"}
}

// nearMiss records the redzone-proximity feedback signal for a *passing*
// check whose final touched segment turned out to be k-partial: the access
// ended k−used bytes short of the first poisoned byte. code is the shadow
// byte the check already loaded for its verdict (so recording costs no
// metadata traffic) and used is how many bytes of that segment the access
// consumed. Calls where the code is folded, or where used is 8 (an aligned
// end cannot sit inside a partial prefix), are no-ops, which is what lets
// both checker paths call this unconditionally after their final-segment
// pass. Accesses that end flush against an 8-aligned object end are not
// near misses under this definition — the final segment is folded there —
// a deliberate trade: the signal stays free and both paths stay trivially
// identical.
func (g *Sanitizer) nearMiss(code uint8, used int) {
	if IsPartial(code) {
		if k := PartialK(code); k >= used {
			g.stats.NearMisses++
			g.stats.NearMissMask |= 1 << uint(k-used)
		}
	}
}

// nullOrWild classifies an access that left the simulated space.
func (g *Sanitizer) nullOrWild(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	g.stats.Errors++
	kind := report.WildAccess
	if p < 1<<12 {
		kind = report.NullDereference
	}
	return &report.Error{Kind: kind, Access: t, Addr: p, Size: w, Detector: g.Name()}
}

// CheckRangeRef is the reference implementation of the paper's CI(L, R) —
// Algorithm 1 — extended with a head fix-up for unaligned L. It is O(1): at
// most one shadow load on the fast path and three more on the slow path,
// independent of R−L.
//
// This is the pre-optimization code path, kept verbatim and exported so the
// differential suites can prove the specialized CheckRange observably
// identical to it (verdict, error kind and every Stats counter).
func (g *Sanitizer) CheckRangeRef(l, r vmem.Addr, t report.AccessType) *report.Error {
	g.stats.Checks++
	g.stats.RangeChecks++
	if l >= r {
		return nil
	}
	if !g.sh.Contains(l) || !g.sh.Contains(r-1) {
		return g.nullOrWild(l, r-l, t)
	}
	// Head fix-up: Algorithm 1 assumes L ≡ 0 (mod 8), which anchored
	// checks guarantee (base pointers are 8-aligned). For a general L,
	// verify the unaligned head against its own segment first.
	if off := l & 7; off != 0 {
		segEnd := l + (8 - off)
		headEnd := min(r, segEnd)
		v := g.load(l)
		endOff := int(((headEnd - 1) & 7) + 1) // bytes of this segment used
		switch {
		case v <= CodeMaxFolded:
			// whole segment good
		case IsPartial(v) && PartialK(v) >= endOff:
			// Access stays within the partial prefix. A partial code only
			// passes when endOff < 8, i.e. the whole access ends in this
			// segment, so this is a completed check grazing the boundary.
			g.nearMiss(v, endOff)
		default:
			return g.fault(l, headEnd, t)
		}
		l = segEnd
		if l >= r {
			return nil
		}
	}

	// Fast check (Algorithm 1, lines 1–3): one load answers "is [l, l+u)
	// known addressable and does it cover [l, r)?".
	v := g.load(l)
	u := SummaryBytes(v)
	length := r - l
	if u >= length {
		g.stats.FastChecks++
		return nil
	}
	g.stats.SlowChecks++

	// Slow check (lines 4–14).
	if length >= 8 {
		if 2*u < length {
			// The prefix folding degree cannot cover half the region:
			// some segment in the prefix is not good.
			return g.fault(l, r, t)
		}
		if g.load(r-u) != v {
			// The suffix is not folded to the same degree.
			return g.fault(l, r, t)
		}
	}
	// Check the partial segment at the end (lines 12–14): the last touched
	// segment must have at least (r mod 8) addressable bytes, or be fully
	// good when r is aligned.
	last := g.load(r - 1)
	if last > CodePartialBase-uint8(r&7) {
		return g.fault(l, r, t)
	}
	g.nearMiss(last, int(((r-1)&7)+1))
	return nil
}

// CheckAccess implements instruction-level protection for one access of
// width w (w ≤ 8 in instrumented code, but any width is accepted). An
// access whose end reaches 2^64 or wraps past it leaves the space, so it
// is reported rather than passed as CheckRange's empty range.
func (g *Sanitizer) CheckAccess(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	r := p + vmem.Addr(w)
	if r < p {
		return g.wrapped(p, w, t)
	}
	return g.CheckRange(p, r, t)
}

// CheckAccessRef is the reference-path counterpart of CheckAccess.
func (g *Sanitizer) CheckAccessRef(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	r := p + vmem.Addr(w)
	if r < p {
		return g.wrapped(p, w, t)
	}
	return g.CheckRangeRef(p, r, t)
}

// wrapped reports an access [p, p+w) whose end reaches 2^64 or wraps past
// it, which no half-open range [l, r) of CheckRange can express. It counts
// the region check the access stands for, as CheckRange and CheckRangeRef
// count theirs before any verdict, so both paths agree on it.
func (g *Sanitizer) wrapped(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	g.stats.Checks++
	g.stats.RangeChecks++
	return g.nullOrWild(p, w, t)
}

// CheckAnchored implements the anchor-based enhancement of §4.4.1: instead
// of checking only [p, p+w), verify that no redzone separates the anchor
// (the buffer base) from the access. A one-byte redzone then suffices to
// catch any overflow magnitude — this is what closes the redzone-bypass
// false negatives of Table 5.
func (g *Sanitizer) CheckAnchored(anchor, p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	end := p + vmem.Addr(w)
	if end < p {
		return g.wrapped(p, w, t)
	}
	if p >= anchor {
		return accessSized(g.CheckRange(anchor, end, t), w)
	}
	// Underflow side (negative offset): check [p, anchor) with a
	// dedicated CI, plus the tail beyond the anchor if the access
	// straddles it. No quasi-lower-bound exists (§5.4), so this path is
	// never cached.
	if err := g.CheckRange(p, anchor, t); err != nil {
		return accessSized(err, w)
	}
	if end > anchor {
		return accessSized(g.CheckRange(anchor, end, t), w)
	}
	return nil
}

// accessSized rewrites a range-check error to carry the triggering
// access's width rather than the anchored span, so reports read like
// "WRITE of size 8" even when the check covered kilobytes.
func accessSized(err *report.Error, w uint64) *report.Error {
	if err != nil {
		err.Size = w
	}
	return err
}

// LocateBound walks folded segments from base to the end of the
// addressable region (Figure 7): it repeatedly skips over the summarized
// bytes until it reaches a non-folded segment, returning the number of
// addressable bytes from base and the number of skips taken. The skip
// count is at most ⌈log2(n/8)⌉ + 1 because the folding degree decreases by
// at least one per skip.
func (g *Sanitizer) LocateBound(base vmem.Addr) (n uint64, skips int) {
	a := base
	for g.sh.Contains(a) {
		v := g.load(a)
		if IsFolded(v) {
			u := SummaryBytes(v)
			a += vmem.Addr(u)
			n += u
			skips++
			continue
		}
		if IsPartial(v) {
			n += uint64(PartialK(v))
		}
		break
	}
	return n, skips
}
