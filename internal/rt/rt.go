// Package rt assembles complete sanitizer runtimes: a simulated address
// space, the shadow-based sanitizer, a heap allocator, and a stack
// allocator, wired together the way the paper's runtime support library
// wires malloc/free interposition to shadow poisoning (Figure 4).
//
// The Runtime interface is what the execution engine (internal/interp) and
// the detection suites program against; GiantSan, ASan and ASan-- use the
// generic Env implementation, while LFP (internal/lfp) provides its own
// because its allocator is the metadata.
//
// An Env has one lifecycle. New is the only constructor: it forks the
// uniform base image of the Env's own space, so construction writes no
// shadow bytes. Pool is the only recycler: it shelves Envs per
// normalized Config and hands them out again after Reset, which costs
// what the previous run dirtied rather than what the arena holds. The
// service's session engine, the canary's replay legs and the fuzzer's
// shrink loop all draw from a Pool they own. Every Env is driven by one
// goroutine at a time.
package rt

import (
	"fmt"

	"giantsan/internal/asan"
	"giantsan/internal/core"
	"giantsan/internal/heap"
	"giantsan/internal/oracle"
	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/stack"
	"giantsan/internal/vmem"
)

// Runtime is a complete memory-sanitizer environment: allocation entry
// points plus the checker. All experiment code is written against it.
type Runtime interface {
	San() san.Sanitizer
	Malloc(size uint64) (vmem.Addr, error)
	Free(p vmem.Addr) *report.Error
	PushFrame()
	Alloca(size uint64) (vmem.Addr, error)
	PopFrame()
	Space() *vmem.Space
	// Oracle returns the ground-truth tracker, or nil when disabled.
	Oracle() *oracle.Oracle
}

// Kind selects a sanitizer implementation.
type Kind int

// Sanitizer kinds.
const (
	// GiantSan is the paper's contribution (internal/core).
	GiantSan Kind = iota
	// ASan is the AddressSanitizer baseline.
	ASan
	// ASanMinus is ASan-- : the ASan runtime driven by debloated
	// instrumentation.
	ASanMinus
)

func (k Kind) String() string {
	switch k {
	case GiantSan:
		return "giantsan"
	case ASan:
		return "asan"
	default:
		return "asan--"
	}
}

// Config parameterizes an Env.
type Config struct {
	Kind Kind
	// HeapBytes and StackBytes size the two regions. Zero defaults to
	// 32 MiB heap and 1 MiB stack. GlobalBytes (default 64 KiB) holds
	// program globals, which live for the whole run.
	HeapBytes, StackBytes, GlobalBytes uint64
	// Redzone is the redzone size for both heap and stack (default 16).
	Redzone uint64
	// QuarantineBytes is the heap quarantine budget (default 1 MiB).
	QuarantineBytes uint64
	// WithOracle enables ground-truth mirroring (needed by property tests
	// and detection suites; costs time, so benches leave it off).
	WithOracle bool
	// DetectUAR enables stack use-after-return detection.
	DetectUAR bool
	// Reference routes checks and poisoner calls through the sanitizer's
	// reference (pre-optimization) path when it implements
	// san.ReferencePath.
	Reference bool
}

// Env is the generic shadow-based runtime.
type Env struct {
	cfg    Config // as normalized by New; fixed for the Env's lifetime
	space  *vmem.Space
	san    san.Sanitizer
	heap   *heap.Allocator
	stack  *stack.Stack
	oracle *oracle.Oracle
	// region boundaries, for Reset's targeted zeroing.
	heapStart   vmem.Addr
	stackStart  vmem.Addr
	globalStart vmem.Addr
	// globals region: a bump pointer; globals are never freed.
	globalBump  vmem.Addr
	globalLimit vmem.Addr
	globalRZ    uint64
}

// Normalize returns cfg with New's sizing defaults filled in. Two configs
// with equal normal forms produce interchangeable Envs, which is the
// equivalence Pool keys on.
func (cfg Config) Normalize() Config {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 32 << 20
	}
	if cfg.StackBytes == 0 {
		cfg.StackBytes = 1 << 20
	}
	if cfg.GlobalBytes == 0 {
		cfg.GlobalBytes = 64 << 10
	}
	return cfg
}

// New builds a runtime per cfg. Its shadow is a lazy copy-on-write fork
// of the uniform base image of cfg's space, the way GiantSan's runtime
// reserves its shadow with mmap and lets the kernel fill it in page by
// page: construction writes no shadow bytes, and the resident shadow
// grows only with the pages the runtime dirties (OverlayStats reports
// them). The one cost that scales with the arena is vmem.NewSpace
// zeroing the application bytes, which Pool avoids by recycling Envs.
//
// An Env is single-goroutine: two disjoint writes may land on the same
// clean shadow page and race on its materialization (see package
// shadow). Only heap's concurrent thread-cache tests drive one
// sanitizer from several goroutines, and they build it all-private with
// core.New or asan.New.
func New(cfg Config) *Env {
	cfg = cfg.Normalize()
	sp := vmem.NewSpace(cfg.spaceBytes())
	var s san.Sanitizer
	switch cfg.Kind {
	case ASan:
		s = asan.Fork(asan.BaseImage(sp))
	case ASanMinus:
		s = asan.ForkMinus(asan.BaseImage(sp))
	default:
		s = core.Fork(core.BaseImage(sp))
	}
	var o *oracle.Oracle
	if cfg.WithOracle {
		o = oracle.New(sp)
	}
	if rp, ok := s.(san.ReferencePath); ok {
		rp.SetReference(cfg.Reference)
	}
	heapStart := sp.Base()
	heapLimit := sp.Base() + vmem.Addr(cfg.HeapBytes)
	h := heap.New(sp, s, heap.Config{
		Redzone:         cfg.Redzone,
		QuarantineBytes: cfg.QuarantineBytes,
		Oracle:          o,
		Start:           heapStart,
		Limit:           heapLimit,
	})
	stackLimit := heapLimit + vmem.Addr(cfg.StackBytes)
	st := stack.New(sp, s, stack.Config{
		Redzone:   cfg.Redzone,
		DetectUAR: cfg.DetectUAR,
		Oracle:    o,
		Start:     heapLimit,
		Limit:     stackLimit,
	})
	return &Env{
		cfg: cfg, space: sp, san: s, heap: h, stack: st, oracle: o,
		heapStart: heapStart, stackStart: heapLimit, globalStart: stackLimit,
		globalBump: stackLimit, globalLimit: sp.Limit(), globalRZ: h.Redzone(),
	}
}

// Fork is New. It remains only for the session benchmark, which calls it
// by this name; delete it once that caller moves to New.
func Fork(cfg Config) *Env { return New(cfg) }

// spaceBytes is the total simulated-space size cfg implies. cfg must be
// normalized.
func (cfg Config) spaceBytes() uint64 {
	return cfg.HeapBytes + cfg.StackBytes + cfg.GlobalBytes
}

// Config returns the configuration the Env was built with, with New's
// defaults filled in. Two Envs with equal Configs are interchangeable,
// which is what Pool keys on.
func (e *Env) Config() Config { return e.cfg }

// Reset returns the Env to a state observably identical to a fresh
// New(cfg), without reallocating anything: the allocators forget their registries, the
// touched application bytes are zeroed, the sanitizer's shadow drops its
// overlay back to the pristine base image and its Stats are zeroed, and
// the oracle (when enabled) is cleared. The cost is proportional to the
// memory the previous run actually dirtied — each region is zeroed only
// up to its bump frontier (the stack up to its high-water mark), and the
// shadow drop is O(dirty pages) — not to the arena size, which is what
// makes pooling Envs cheaper than rebuilding them.
//
// The differential reset suite (reset_test.go) enforces byte-for-byte
// equivalence with a fresh all-private reference Env for every sanitizer
// kind and every Config shape a harness pools, so a pooled arena can
// never leak one tenant's poison or data into the next.
func (e *Env) Reset() {
	rs, ok := e.san.(san.Resetter)
	if !ok {
		panic(fmt.Sprintf("rt: sanitizer %s does not support arena reset", e.san.Name()))
	}
	e.space.Zero(e.heapStart, e.heap.Reset())
	e.space.Zero(e.stackStart, e.stack.Reinit())
	e.space.Zero(e.globalStart, uint64(e.globalBump-e.globalStart))
	e.globalBump = e.globalStart
	rs.Reset()
	if e.oracle != nil {
		e.oracle.Reset()
	}
}

// Global registers a program global of the given size: globals get
// redzones like heap objects (ASan's global instrumentation) but live for
// the whole run and cannot be freed.
func (e *Env) Global(size uint64) (vmem.Addr, error) {
	if size == 0 {
		size = 1
	}
	reserved := (size + 7) &^ 7
	need := vmem.Addr(e.globalRZ + reserved + e.globalRZ)
	if e.globalBump+need > e.globalLimit {
		return 0, fmt.Errorf("rt: global region exhausted (need %d bytes)", need)
	}
	start := e.globalBump
	base := start + vmem.Addr(e.globalRZ)
	e.globalBump += need
	e.san.Poison(start, e.globalRZ, san.GlobalRedzone)
	e.san.MarkAllocated(base, size)
	e.san.Poison(base+vmem.Addr(reserved), e.globalRZ, san.GlobalRedzone)
	if e.oracle != nil {
		tail := reserved - size
		e.oracle.Alloc(base, size, e.globalRZ, e.globalRZ+tail, oracle.Global, "global")
	}
	return base, nil
}

// San implements Runtime.
func (e *Env) San() san.Sanitizer { return e.san }

// Malloc implements Runtime.
func (e *Env) Malloc(size uint64) (vmem.Addr, error) { return e.heap.Malloc(size) }

// Free implements Runtime.
func (e *Env) Free(p vmem.Addr) *report.Error { return e.heap.Free(p) }

// PushFrame implements Runtime.
func (e *Env) PushFrame() { e.stack.Push() }

// Alloca implements Runtime.
func (e *Env) Alloca(size uint64) (vmem.Addr, error) { return e.stack.Alloca(size) }

// PopFrame implements Runtime.
func (e *Env) PopFrame() { e.stack.Pop() }

// Space implements Runtime.
func (e *Env) Space() *vmem.Space { return e.space }

// Oracle implements Runtime.
func (e *Env) Oracle() *oracle.Oracle { return e.oracle }

// Annotate enriches an error with the ASan-style description of the
// nearest allocation ("4 bytes to the right of 100-byte region ...").
// Error-path only; nil passes through.
func (e *Env) Annotate(err *report.Error) *report.Error {
	if err == nil || err.Context != "" {
		return err
	}
	if ci, ok := e.heap.Locate(err.Addr, 1<<16); ok {
		err.Context = ci.String()
	}
	return err
}

// Heap exposes the heap allocator for tests.
func (e *Env) Heap() *heap.Allocator { return e.heap }

// Stack exposes the stack allocator for tests.
func (e *Env) Stack() *stack.Stack { return e.stack }

// shadowed is satisfied by the sanitizers that expose their shadow memory
// (core and asan do; LFP has none).
type shadowed interface {
	Shadow() *shadow.Memory
}

// ShadowBytes returns the size of the Env's whole shadow plane — one byte
// per 8-byte segment over the address space. It is the ceiling
// OverlayStats is measured against: the bytes an all-private shadow
// (core.New, asan.New) holds up front.
func (e *Env) ShadowBytes() int {
	if sh, ok := e.san.(shadowed); ok {
		return sh.Shadow().NumSegments()
	}
	return 0
}

// OverlayStats reports the resident overlay footprint of the Env's shadow:
// privatized pages and their bytes. Zero for a fresh Env and right after
// Reset — the "per-tenant memory proportional to dirtied pages" number
// TestForkResidencyTracksDirtiedPages pins on a real kernel.
func (e *Env) OverlayStats() (pages int, bytes int) {
	if sh, ok := e.san.(shadowed); ok {
		return sh.Shadow().OverlayStats()
	}
	return 0, 0
}
