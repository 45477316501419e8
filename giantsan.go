// Package giantsan is a from-scratch reproduction of "GiantSan: Efficient
// Memory Sanitization with Segment Folding" (ASPLOS 2024) as a Go library
// over a simulated address space.
//
// The library bundles four complete sanitizers — GiantSan (segment
// folding, the paper's contribution), AddressSanitizer, ASan-- and the
// low-fat-pointer baseline LFP — behind one Detector API, plus the full
// evaluation harness regenerating every table and figure of the paper
// (see internal/bench and cmd/giantbench).
//
// A Detector owns a simulated heap and stack. Allocate with Malloc /
// Alloca, touch memory with Read / Write / Fill, and every operation is
// checked by the selected sanitizer; violations are recorded (the paper's
// halt_on_error=false mode) and the faulting operation is suppressed.
//
//	d := giantsan.New(giantsan.Config{})
//	buf, _ := d.Malloc(100)
//	d.Write(buf, 100, 1, 0xFF) // one past the end
//	fmt.Println(d.Errors()[0]) // heap-buffer-overflow: WRITE of size 1 ...
package giantsan

import (
	"errors"
	"fmt"

	"giantsan/internal/core"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/tool"
)

// Ptr is a simulated 64-bit address returned by Malloc and Alloca.
type Ptr = uint64

// Tool selects the sanitizer implementation.
type Tool int

// Available sanitizers.
const (
	// GiantSan is the paper's segment-folding sanitizer.
	GiantSan Tool = iota
	// ASan is the AddressSanitizer baseline.
	ASan
	// ASanMinus is ASan-- (debloated check set, same runtime as ASan).
	ASanMinus
	// LFP is the low-fat-pointer baseline (rounded bounds, no shadow).
	LFP
)

func (t Tool) String() string {
	switch t {
	case GiantSan:
		return "giantsan"
	case ASan:
		return "asan"
	case ASanMinus:
		return "asan--"
	default:
		return "lfp"
	}
}

// Config parameterizes a Detector. The zero value is a GiantSan detector
// with the paper's defaults (16-byte redzones, 1 MiB quarantine).
type Config struct {
	Tool Tool
	// RedzoneBytes is the redzone size (default 16, the paper's default).
	RedzoneBytes uint64
	// HeapBytes sizes the simulated heap (default 32 MiB).
	HeapBytes uint64
	// StackBytes sizes the simulated stack (default 1 MiB).
	StackBytes uint64
	// DetectUseAfterReturn retires popped stack frames.
	DetectUseAfterReturn bool
}

// Error is one detected memory-safety violation.
type Error struct {
	// Kind is the ASan-style report name, e.g. "heap-buffer-overflow".
	Kind string
	// Op is "READ", "WRITE" or "FREE".
	Op string
	// Addr is the first faulting simulated address.
	Addr Ptr
	// Size is the access width in bytes.
	Size uint64
	// Spatial and Temporal classify the violation.
	Spatial, Temporal bool
	// Detail locates the fault relative to the nearest allocation, e.g.
	// "4 bytes to the right of 100-byte region [0x10010,0x10074)".
	Detail string
}

func (e Error) String() string {
	s := fmt.Sprintf("%s: %s of size %d at %#x", e.Kind, e.Op, e.Size, e.Addr)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Stats are the sanitizer's runtime counters.
type Stats struct {
	Checks       uint64 // runtime checks executed
	ShadowLoads  uint64 // metadata loads
	FastChecks   uint64 // GiantSan region checks satisfied by the fast path
	SlowChecks   uint64 // region checks needing the O(1) slow path
	CacheHits    uint64 // quasi-bound hits (zero metadata loads)
	CacheRefills uint64 // quasi-bound reloads
	Errors       uint64
}

// Detector is a sanitizer instance over its own simulated address space.
type Detector struct {
	cfg Config
	t   *tool.Tool
}

// New returns a ready Detector.
func New(cfg Config) *Detector {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 32 << 20
	}
	if cfg.StackBytes == 0 {
		cfg.StackBytes = 1 << 20
	}
	return &Detector{
		cfg: cfg,
		t: tool.New(tool.Config{
			Kind:       tool.Kind(cfg.Tool),
			Redzone:    cfg.RedzoneBytes,
			HeapBytes:  cfg.HeapBytes,
			StackBytes: cfg.StackBytes,
			DetectUAR:  cfg.DetectUseAfterReturn,
		}),
	}
}

// Tool returns the active sanitizer.
func (d *Detector) Tool() Tool { return d.cfg.Tool }

// Malloc allocates size bytes on the simulated heap.
func (d *Detector) Malloc(size uint64) (Ptr, error) {
	p, err := d.t.RT.Malloc(size)
	if err != nil {
		return 0, fmt.Errorf("giantsan: %w", err)
	}
	return p, nil
}

// Free deallocates p. Invalid and double frees are recorded as errors,
// not returned: they are detections, exactly like bad accesses.
func (d *Detector) Free(p Ptr) { d.t.Record(d.t.RT.Free(p)) }

// Realloc resizes a heap allocation with C semantics: contents move to a
// fresh chunk and the old one is quarantined, so stale pointers are
// detected. Only shadow-based detectors support it (LFP's allocator has
// no realloc in this reproduction).
func (d *Detector) Realloc(p Ptr, size uint64) (Ptr, error) {
	env, ok := d.t.RT.(*rt.Env)
	if !ok {
		return 0, errors.New("giantsan: realloc unsupported by this tool")
	}
	np, rerr, err := env.Heap().Realloc(p, size)
	if err != nil {
		return 0, fmt.Errorf("giantsan: %w", err)
	}
	d.t.Record(rerr)
	return np, nil
}

// PushFrame opens a stack frame.
func (d *Detector) PushFrame() { d.t.RT.PushFrame() }

// Alloca allocates a stack local in the current frame. It panics when
// the simulated stack is exhausted.
func (d *Detector) Alloca(size uint64) Ptr { return d.t.Alloca(size) }

// PopFrame closes the current frame.
func (d *Detector) PopFrame() { d.t.RT.PopFrame() }

// Write checks and performs a w-byte store of val at base+off. The check
// uses the sanitizer's native discipline: GiantSan and LFP anchor at base
// (§4.4.1), ASan checks the location alone. It reports whether the write
// was allowed.
func (d *Detector) Write(base Ptr, off int64, w uint64, val uint64) bool {
	if !d.check(base, off, w, report.Write) {
		return false
	}
	p := base + Ptr(off)
	sp := d.t.RT.Space()
	if w > 8 || !sp.Contains(p, w) {
		return false
	}
	sp.Store(p, w, val)
	return true
}

// Read checks and performs a w-byte load at base+off (w ≤ 8).
func (d *Detector) Read(base Ptr, off int64, w uint64) (uint64, bool) {
	if !d.check(base, off, w, report.Read) {
		return 0, false
	}
	p := base + Ptr(off)
	sp := d.t.RT.Space()
	if w > 8 || !sp.Contains(p, w) {
		return 0, false
	}
	return sp.Load(p, w), true
}

// Fill checks and memsets [base+off, base+off+n) — the operation-level
// path: one region check of any size (O(1) under GiantSan, linear under
// ASan).
func (d *Detector) Fill(base Ptr, off int64, n uint64, b byte) bool {
	l := base + Ptr(off)
	if err := d.t.RT.San().CheckRange(l, l+Ptr(n), report.Write); err != nil {
		d.t.Record(err)
		return false
	}
	sp := d.t.RT.Space()
	if !sp.Contains(l, n) {
		return false
	}
	sp.Memset(l, b, n)
	return true
}

// CheckRange checks [base+off, base+off+n) without touching memory —
// the guardian entry point library interceptors (strcpy, memcpy) use.
func (d *Detector) CheckRange(base Ptr, off int64, n uint64) bool {
	l := base + Ptr(off)
	if err := d.t.RT.San().CheckRange(l, l+Ptr(n), report.Read); err != nil {
		d.t.Record(err)
		return false
	}
	return true
}

func (d *Detector) check(base Ptr, off int64, w uint64, at report.AccessType) bool {
	p := base + Ptr(off)
	var err *report.Error
	s := d.t.RT.San()
	switch d.cfg.Tool {
	case ASan, ASanMinus:
		err = s.CheckAccess(p, w, at)
	default:
		err = s.CheckAnchored(base, p, w, at)
	}
	if err != nil {
		d.t.Record(err)
		return false
	}
	return true
}

// Cursor is a quasi-bound history cache bound to one buffer (§4.3): loop
// accesses through a Cursor skip metadata loads once the folded-segment
// bound is cached. For sanitizers without caching it degrades to plain
// checked accesses.
type Cursor struct {
	d      *Detector
	base   Ptr
	cache  san.Cache
	closed bool
}

// NewCursor returns a cursor anchored at base.
func (d *Detector) NewCursor(base Ptr) *Cursor {
	return &Cursor{d: d, base: base, cache: d.t.RT.San().NewCache()}
}

// Read performs a cached checked load at base+off.
func (c *Cursor) Read(off int64, w uint64) (uint64, bool) {
	if c.closed {
		return 0, false
	}
	if err := c.cache.CheckCached(c.base, off, w, report.Read); err != nil {
		c.d.t.Record(err)
		return 0, false
	}
	p := c.base + Ptr(off)
	sp := c.d.t.RT.Space()
	if w > 8 || !sp.Contains(p, w) {
		return 0, false
	}
	return sp.Load(p, w), true
}

// Write performs a cached checked store at base+off.
func (c *Cursor) Write(off int64, w uint64, val uint64) bool {
	if c.closed {
		return false
	}
	if err := c.cache.CheckCached(c.base, off, w, report.Write); err != nil {
		c.d.t.Record(err)
		return false
	}
	p := c.base + Ptr(off)
	sp := c.d.t.RT.Space()
	if w > 8 || !sp.Contains(p, w) {
		return false
	}
	sp.Store(p, w, val)
	return true
}

// Close runs the loop-exit check that catches a mid-loop free (§4.3) and
// retires the cursor. Further use returns failure.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if err := c.cache.Finish(c.base, report.Read); err != nil {
		c.d.t.Record(err)
	}
}

// Errors returns the violations recorded so far.
func (d *Detector) Errors() []Error {
	out := make([]Error, 0, len(d.t.Log.Errors))
	for _, e := range d.t.Log.Errors {
		out = append(out, Error{
			Kind:     e.Kind.String(),
			Op:       e.Access.String(),
			Addr:     e.Addr,
			Size:     e.Size,
			Spatial:  e.Kind.Spatial(),
			Temporal: e.Kind.Temporal(),
			Detail:   e.Context,
		})
	}
	return out
}

// ErrorCount returns the total number of violations, including any beyond
// the retained log.
func (d *Detector) ErrorCount() int { return d.t.Log.Total() }

// ResetErrors clears the log.
func (d *Detector) ResetErrors() { d.t.Log.Reset() }

// Stats returns a snapshot of the sanitizer counters.
func (d *Detector) Stats() Stats {
	s := d.t.RT.San().Stats()
	return Stats{
		Checks:       s.Checks,
		ShadowLoads:  s.ShadowLoads,
		FastChecks:   s.FastChecks,
		SlowChecks:   s.SlowChecks,
		CacheHits:    s.CacheHits,
		CacheRefills: s.CacheRefills,
		Errors:       s.Errors,
	}
}

// ShadowDump renders the shadow memory around addr in the style of ASan's
// crash reports (GiantSan detectors only; other tools return "").
func (d *Detector) ShadowDump(addr Ptr) string {
	if g, ok := d.t.RT.San().(*core.Sanitizer); ok {
		return g.DumpShadow(addr, 5)
	}
	return ""
}

// ErrUnknownTool is returned by ParseTool for unrecognized names.
var ErrUnknownTool = errors.New("giantsan: unknown tool")

// ParseTool converts a tool name ("giantsan", "asan", "asan--", "lfp").
func ParseTool(name string) (Tool, error) {
	for _, t := range []Tool{GiantSan, ASan, ASanMinus, LFP} {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownTool, name)
}
