// Package tool wraps a sanitizer runtime with the access semantics its
// instrumentation would generate, for use by the detection suites
// (internal/juliet, internal/flaws, internal/magma).
//
// A hand-distilled vulnerability scenario is a sequence of allocations and
// accesses; whether an access is checked anchored (GiantSan, LFP) or bare
// (ASan, ASan--) is an instrumentation property, so the suites drive this
// wrapper instead of the checkers directly — exactly one semantics per
// tool, identical scenarios for every tool.
package tool

import (
	"fmt"

	"giantsan/internal/instrument"
	"giantsan/internal/lfp"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/vmem"
)

// Kind names a complete tool configuration.
type Kind int

// Tool kinds under evaluation.
const (
	GiantSan Kind = iota
	ASan
	ASanMinus
	LFP
)

func (k Kind) String() string {
	switch k {
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

// Config parameterizes a tool instance.
type Config struct {
	Kind Kind
	// Redzone in bytes (shadow-based tools only); zero means 16.
	Redzone uint64
	// HeapBytes sizes the arena; zero means 2 MiB.
	HeapBytes uint64
	// StackBytes sizes the stack region; zero means 256 KiB.
	StackBytes uint64
	// DetectUAR enables stack use-after-return retirement.
	DetectUAR bool
}

// Tool is one sanitizer under test plus its error log.
type Tool struct {
	Kind Kind
	RT   rt.Runtime
	Log  report.Log
	prof instrument.Profile
}

// New builds a tool.
func New(cfg Config) *Tool {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 2 << 20
	}
	if cfg.StackBytes == 0 {
		cfg.StackBytes = 256 << 10
	}
	t := &Tool{Kind: cfg.Kind}
	switch cfg.Kind {
	case LFP:
		t.RT = lfp.New(lfp.Config{HeapBytes: cfg.HeapBytes + cfg.StackBytes, MaxClass: 1 << 16})
		t.prof = instrument.LFPProfile
	default:
		var k rt.Kind
		switch cfg.Kind {
		case ASan:
			k, t.prof = rt.ASan, instrument.ASanProfile
		case ASanMinus:
			k, t.prof = rt.ASanMinus, instrument.ASanMinusProfile
		default:
			k, t.prof = rt.GiantSan, instrument.GiantSanProfile
		}
		t.RT = rt.New(rt.Config{
			Kind:       k,
			HeapBytes:  cfg.HeapBytes,
			StackBytes: cfg.StackBytes,
			Redzone:    cfg.Redzone,
			DetectUAR:  cfg.DetectUAR,
		})
	}
	return t
}

// Name returns the tool's display name.
func (t *Tool) Name() string { return t.Kind.String() }

// Record logs err, annotated with allocation context when the runtime
// supports it.
func (t *Tool) Record(err *report.Error) {
	if err == nil {
		return
	}
	if env, ok := t.RT.(*rt.Env); ok {
		err = env.Annotate(err)
	}
	t.Log.Record(err)
}

// Detected reports whether any error has been recorded.
func (t *Tool) Detected() bool { return t.Log.Total() > 0 }

// Reset clears the error log (between cases sharing a runtime).
func (t *Tool) Reset() { t.Log.Reset() }

// Malloc allocates and fails the test scenario loudly on OOM (a harness
// sizing bug, not a detection outcome).
func (t *Tool) Malloc(size uint64) vmem.Addr {
	p, err := t.RT.Malloc(size)
	if err != nil {
		panic(fmt.Sprintf("tool: malloc(%d): %v", size, err))
	}
	return p
}

// Free records any free error.
func (t *Tool) Free(p vmem.Addr) { t.Record(t.RT.Free(p)) }

// PushFrame / PopFrame mirror the runtime.
func (t *Tool) PushFrame() { t.RT.PushFrame() }
func (t *Tool) PopFrame()  { t.RT.PopFrame() }

// Alloca allocates a stack local and, like Malloc, fails the test
// scenario loudly when the stack is exhausted.
func (t *Tool) Alloca(size uint64) vmem.Addr {
	p, err := t.RT.Alloca(size)
	if err != nil {
		panic(fmt.Sprintf("tool: alloca(%d): %v", size, err))
	}
	return p
}

// Access checks and (when clean) performs an access of width w at
// base+off, using the tool's instrumentation semantics: anchored tools
// check the whole [base, access] span, the rest check the location only.
func (t *Tool) Access(base vmem.Addr, off int64, w uint64, at report.AccessType) {
	p := base + vmem.Addr(off)
	var err *report.Error
	if t.prof.Anchor {
		err = t.RT.San().CheckAnchored(base, p, w, at)
	} else if w <= 8 {
		err = t.RT.San().CheckAccess(p, w, at)
	} else {
		err = t.RT.San().CheckRange(p, p+vmem.Addr(w), at)
	}
	if err != nil {
		t.Record(err)
		return
	}
	if sp := t.RT.Space(); sp.Contains(p, w) {
		if at == report.Write {
			sp.Store(p, min(w, 8), 0xabad1dea)
		} else {
			_ = sp.Load(p, min(w, 8))
		}
	}
}

// Range checks a bulk operation [base+off, base+off+n) (memset/strcpy-
// style), through the tool's region guardian.
func (t *Tool) Range(base vmem.Addr, off int64, n uint64, at report.AccessType) {
	l := base + vmem.Addr(off)
	if err := t.RT.San().CheckRange(l, l+vmem.Addr(n), at); err != nil {
		t.Record(err)
		return
	}
	if sp := t.RT.Space(); sp.Contains(l, n) && at == report.Write {
		sp.Memset(l, 0x5a, n)
	}
}
