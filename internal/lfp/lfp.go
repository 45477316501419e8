// Package lfp implements the Low-Fat Pointer baseline (Duck & Yap, CC'16 /
// NDSS'17), the paper's representative of rounded-up-bound sanitizers
// (BBC's modern successor).
//
// LFP derives an object's bounds from the pointer value itself: the heap is
// partitioned into equal-sized per-size-class regions, every object
// occupies one slot of its class, and bounds(p) = the slot containing p —
// two integer divisions, no shadow memory. That gives O(1) checks and no
// metadata propagation, at the price the paper measures:
//
//   - allocation sizes are rounded up to the class size, so overflows that
//     stay inside the rounding slack are invisible (Table 3's 4/1504 on
//     CWE-122, Table 4's missed CVEs);
//   - stack objects are protected only when they can be placed in a
//     low-fat-aligned slot, which needs the "simulated stack" machinery and
//     covers few objects (Table 3's 49/1439 on CWE-121);
//   - there is no quarantine, so freed slots are reused immediately and
//     use-after-free is caught only until the slot is recycled.
package lfp

import (
	"errors"
	"fmt"
	"sort"

	"giantsan/internal/oracle"
	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// MinClass is the smallest allocation class.
const MinClass = 16

// frameLocal records an unprotected stack local for oracle bookkeeping.
type frameLocal struct {
	base vmem.Addr
	size uint64
}

// ErrOutOfMemory is returned when a class region is exhausted.
var ErrOutOfMemory = errors.New("lfp: class region exhausted")

// Classes returns the LFP size-class table: powers of two from MinClass up
// to max, each power-of-two interval subdivided in four (rounded to 8-byte
// multiples, deduplicated).
func Classes(max uint64) []uint64 {
	var out []uint64
	seen := map[uint64]bool{}
	for p := uint64(MinClass); p <= max; p *= 2 {
		for i := uint64(0); i < 4; i++ {
			c := p + i*p/4
			c = (c + 7) &^ 7
			if c <= max && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BBCClasses returns Baggy Bounds Checking's coarser table: pure powers of
// two (§2.1: "it rounds allocation sizes up to a power of two"), which is
// what makes BBC miss p[700] on a char p[600] buffer — 600 rounds to 1024.
func BBCClasses(max uint64) []uint64 {
	var out []uint64
	for p := uint64(MinClass); p <= max; p *= 2 {
		out = append(out, p)
	}
	return out
}

// Runtime is the complete LFP environment: allocator and checker are one
// thing, because the allocator layout *is* the metadata. It implements
// rt.Runtime and san.Sanitizer.
type Runtime struct {
	space      *vmem.Space
	classes    []uint64
	regionSize uint64
	base       vmem.Addr
	// bump and freeList are per class region.
	bump     []vmem.Addr
	freeList [][]vmem.Addr
	// freed maps slot bases whose object was freed and not yet reused to
	// the requested size: the only temporal protection LFP has.
	freed map[vmem.Addr]uint64
	live  map[vmem.Addr]uint64 // slot base -> requested size
	// stackRegion: index of the pseudo-class backing unprotected stack
	// objects (one giant slot: checks inside it always pass).
	stackRegion int
	stackBump   vmem.Addr
	frames      []vmem.Addr
	frameObjs   [][]vmem.Addr  // protected (slot-allocated) locals per frame
	frameUnprot [][]frameLocal // unprotected locals per frame
	oracle      *oracle.Oracle
	stats       san.Stats
	name        string

	// StackProtect decides whether a stack object can be placed in a
	// protected low-fat slot. The default models LFP's aligned-stack
	// requirement: only class-exact objects of at least 64 bytes qualify.
	StackProtect func(size uint64) bool
}

// Config parameterizes an LFP runtime.
type Config struct {
	// HeapBytes sizes the arena (default 32 MiB + stack region).
	HeapBytes uint64
	// MaxClass is the largest size class (default 1 MiB).
	MaxClass uint64
	// WithOracle enables ground-truth mirroring.
	WithOracle bool
	// BBC selects Baggy Bounds Checking's pure power-of-two classes
	// instead of LFP's finer subdivisions — the ancestor baseline §2.1
	// discusses (the paper could not obtain BBC's implementation; its
	// rounding semantics are fully specified, so this reproduction
	// includes it).
	BBC bool
}

// New builds an LFP runtime.
func New(cfg Config) *Runtime {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 32 << 20
	}
	if cfg.MaxClass == 0 {
		cfg.MaxClass = 1 << 20
	}
	classes := Classes(cfg.MaxClass)
	name := "lfp"
	if cfg.BBC {
		classes = BBCClasses(cfg.MaxClass)
		name = "bbc"
	}
	nRegions := len(classes) + 1 // +1 for the unprotected stack pseudo-region
	regionSize := (cfg.HeapBytes / uint64(nRegions)) &^ 7
	if regionSize < cfg.MaxClass {
		regionSize = cfg.MaxClass
	}
	sp := vmem.NewSpace(regionSize * uint64(nRegions))
	r := &Runtime{
		space:       sp,
		classes:     classes,
		regionSize:  regionSize,
		base:        sp.Base(),
		bump:        make([]vmem.Addr, len(classes)),
		freeList:    make([][]vmem.Addr, len(classes)),
		freed:       map[vmem.Addr]uint64{},
		live:        map[vmem.Addr]uint64{},
		stackRegion: len(classes),
		name:        name,
	}
	for i := range r.bump {
		r.bump[i] = r.regionStart(i)
	}
	r.stackBump = r.regionStart(r.stackRegion)
	if cfg.WithOracle {
		r.oracle = oracle.New(sp)
	}
	r.StackProtect = func(size uint64) bool {
		ci := r.classIndexFor(size)
		return ci >= 0 && r.classes[ci] == size && size >= 64
	}
	return r
}

func (r *Runtime) regionStart(i int) vmem.Addr {
	return r.base + vmem.Addr(uint64(i)*r.regionSize)
}

// classIndexFor returns the smallest class holding size, or -1.
func (r *Runtime) classIndexFor(size uint64) int {
	i := sort.Search(len(r.classes), func(i int) bool { return r.classes[i] >= size })
	if i == len(r.classes) {
		return -1
	}
	return i
}

// regionIndexOf returns the region index of address p: one division, the
// heart of LFP's O(1) metadata lookup.
func (r *Runtime) regionIndexOf(p vmem.Addr) int {
	return int(uint64(p-r.base) / r.regionSize)
}

// slotOf returns the bounds [slot, slot+classSize) of the slot containing
// p. For the stack pseudo-region, the whole region is one slot.
func (r *Runtime) slotOf(p vmem.Addr) (slot vmem.Addr, size uint64, ok bool) {
	if p < r.base || p >= r.space.Limit() {
		return 0, 0, false
	}
	ri := r.regionIndexOf(p)
	start := r.regionStart(ri)
	if ri == r.stackRegion {
		return start, r.regionSize, true
	}
	cls := r.classes[ri]
	off := uint64(p-start) / cls * cls
	return start + vmem.Addr(off), cls, true
}

// RoundedSize returns the class size the request is rounded to. It exists
// so tests can state the false-negative boundary precisely.
func (r *Runtime) RoundedSize(size uint64) uint64 {
	ci := r.classIndexFor(size)
	if ci < 0 {
		return 0
	}
	return r.classes[ci]
}

// Malloc allocates size bytes in the smallest fitting class slot.
func (r *Runtime) Malloc(size uint64) (vmem.Addr, error) {
	if size == 0 {
		size = 1
	}
	ci := r.classIndexFor(size)
	if ci < 0 {
		return 0, fmt.Errorf("lfp: size %d exceeds the largest class", size)
	}
	cls := r.classes[ci]
	var slot vmem.Addr
	if fl := r.freeList[ci]; len(fl) > 0 {
		slot = fl[len(fl)-1]
		r.freeList[ci] = fl[:len(fl)-1]
		if r.oracle != nil {
			r.oracle.Recycle(slot, r.freed[slot])
		}
		delete(r.freed, slot)
	} else {
		regionEnd := r.regionStart(ci) + vmem.Addr(r.regionSize)
		if r.bump[ci]+vmem.Addr(cls) > regionEnd {
			return 0, fmt.Errorf("%w: class %d", ErrOutOfMemory, cls)
		}
		slot = r.bump[ci]
		r.bump[ci] += vmem.Addr(cls)
	}
	r.live[slot] = size
	if r.oracle != nil {
		// Ground truth: only the *requested* bytes are legitimate. The
		// rounding slack is exactly LFP's false-negative window.
		r.oracle.Alloc(slot, size, 0, 0, oracle.Heap, "")
	}
	return slot, nil
}

// Free releases the slot at p (immediately reusable: no quarantine).
func (r *Runtime) Free(p vmem.Addr) *report.Error {
	size, ok := r.live[p]
	if !ok {
		kind := report.InvalidFree
		if _, wasFreed := r.freed[p]; wasFreed {
			kind = report.DoubleFree
		}
		r.stats.Errors++
		return &report.Error{Kind: kind, Access: report.FreeOp, Addr: p, Detector: r.Name()}
	}
	ri := r.regionIndexOf(p)
	if ri >= len(r.classes) {
		r.stats.Errors++
		return &report.Error{Kind: report.InvalidFree, Access: report.FreeOp, Addr: p, Detector: r.Name()}
	}
	r.freed[p] = size
	if r.oracle != nil {
		r.oracle.Free(p)
	}
	delete(r.live, p)
	r.freeList[ri] = append(r.freeList[ri], p)
	return nil
}

// PushFrame implements rt.Runtime.
func (r *Runtime) PushFrame() {
	r.frames = append(r.frames, r.stackBump)
	r.frameObjs = append(r.frameObjs, nil)
	r.frameUnprot = append(r.frameUnprot, nil)
}

// Alloca implements rt.Runtime. Protected locals get a low-fat slot;
// everything else lands in the unprotected stack region where bounds are
// the whole region (no detection).
func (r *Runtime) Alloca(size uint64) (vmem.Addr, error) {
	if size == 0 {
		size = 1
	}
	if len(r.frames) == 0 {
		panic("lfp: Alloca without a pushed frame")
	}
	if r.StackProtect(size) {
		if p, err := r.Malloc(size); err == nil {
			top := len(r.frameObjs) - 1
			r.frameObjs[top] = append(r.frameObjs[top], p)
			return p, nil
		}
	}
	// The size is compared before it is rounded, which a size near 2^64
	// would wrap.
	room := uint64(r.regionStart(r.stackRegion) + vmem.Addr(r.regionSize) - r.stackBump)
	reserved := (size + 7) &^ 7
	if size > room || reserved > room {
		return 0, fmt.Errorf("lfp: simulated stack exhausted: a %d-byte local does not fit in the %d bytes left", size, room)
	}
	p := r.stackBump
	r.stackBump += vmem.Addr(reserved)
	top := len(r.frameUnprot) - 1
	r.frameUnprot[top] = append(r.frameUnprot[top], frameLocal{base: p, size: size})
	if r.oracle != nil {
		r.oracle.Alloc(p, size, 0, 0, oracle.Stack, "")
	}
	return p, nil
}

// PopFrame implements rt.Runtime.
func (r *Runtime) PopFrame() {
	if len(r.frames) == 0 {
		panic("lfp: PopFrame on empty stack")
	}
	top := len(r.frames) - 1
	for _, p := range r.frameObjs[top] {
		_ = r.Free(p)
	}
	if r.oracle != nil {
		for _, l := range r.frameUnprot[top] {
			r.oracle.Free(l.base)
			r.oracle.Recycle(l.base, l.size)
		}
	}
	r.stackBump = r.frames[top]
	r.frames = r.frames[:top]
	r.frameObjs = r.frameObjs[:top]
	r.frameUnprot = r.frameUnprot[:top]
}

// Space implements rt.Runtime.
func (r *Runtime) Space() *vmem.Space { return r.space }

// Oracle implements rt.Runtime.
func (r *Runtime) Oracle() *oracle.Oracle { return r.oracle }

// San implements rt.Runtime: the runtime is its own sanitizer.
func (r *Runtime) San() san.Sanitizer { return r }

// Name implements san.Sanitizer.
func (r *Runtime) Name() string { return r.name }

// Stats implements san.Sanitizer.
func (r *Runtime) Stats() *san.Stats { return &r.stats }

// MarkAllocated implements san.Poisoner as a no-op: LFP has no shadow.
func (r *Runtime) MarkAllocated(base vmem.Addr, size uint64) {}

// Poison implements san.Poisoner as a no-op: LFP has no shadow.
func (r *Runtime) Poison(base vmem.Addr, size uint64, kind san.PoisonKind) {}

// checkSlot verifies [p, p+w) against the slot derived from ref.
func (r *Runtime) checkSlot(ref, p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	r.stats.Checks++
	slot, size, ok := r.slotOf(ref)
	if !ok {
		r.stats.Errors++
		kind := report.WildAccess
		if p < 1<<12 {
			kind = report.NullDereference
		}
		return &report.Error{Kind: kind, Access: t, Addr: p, Size: w, Detector: r.Name()}
	}
	// Written without p+w, whose wrap past 2^64 would pass an access
	// that leaves the space.
	if p < slot || w > size || p-slot > vmem.Addr(size-w) {
		r.stats.Errors++
		kind := report.HeapBufferOverflow
		if p < slot {
			kind = report.HeapBufferUnderflow
		}
		return &report.Error{Kind: kind, Access: t, Addr: p, Size: w, Detector: r.Name()}
	}
	if _, wasFreed := r.freed[slot]; wasFreed {
		r.stats.Errors++
		return &report.Error{Kind: report.UseAfterFree, Access: t, Addr: p, Size: w, Detector: r.Name()}
	}
	return nil
}

// CheckAccess implements san.Checker with bounds derived from the accessed
// pointer itself (the tag-reobtaining fallback).
func (r *Runtime) CheckAccess(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	return r.checkSlot(p, p, w, t)
}

// CheckRange implements san.Checker: O(1), bounds from the range start.
func (r *Runtime) CheckRange(l, rr vmem.Addr, t report.AccessType) *report.Error {
	if l >= rr {
		r.stats.Checks++
		return nil
	}
	return r.checkSlot(l, l, uint64(rr-l), t)
}

// CheckAnchored implements san.Checker with bounds propagated from the
// anchor — the pointer-based discipline LFP actually uses.
func (r *Runtime) CheckAnchored(anchor, p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	return r.checkSlot(anchor, p, w, t)
}

// NewCache implements san.Sanitizer: LFP needs no cache — its checks are
// already O(1) with zero metadata loads — so the pass-through is exact.
func (r *Runtime) NewCache() san.Cache { return &san.PassCache{S: r} }
