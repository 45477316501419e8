// Package stack implements the simulated stack allocator.
//
// ASan (and GiantSan on top of it) instruments each function frame: locals
// are laid out with redzones between them, the redzones are poisoned on
// entry, and the frame is handled on exit — either unpoisoned (default) or
// retired as "after return" memory for use-after-return detection. This
// package reproduces that layout over the simulated address space so the
// Juliet CWE-121 (stack overflow) and use-after-return cases exercise the
// same shadow geometry the native tools see.
package stack

import (
	"errors"
	"fmt"

	"giantsan/internal/oracle"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// Align matches the heap allocator's 8-byte object alignment.
const Align = 8

// DefaultRedzone is the per-local redzone size.
const DefaultRedzone = 16

// ErrExhausted is returned when a local does not fit in the room left on
// the simulated stack.
var ErrExhausted = errors.New("stack: simulated stack exhausted")

// local records one stack object within a frame.
type local struct {
	base vmem.Addr
	size uint64
}

// frame is one pushed function frame. Its locals are Stack.locals[locals:]
// up to the next frame's start, so a frame is two words and pushing one
// allocates nothing once the stack has been that deep before.
type frame struct {
	start  vmem.Addr
	locals int
}

// Stack is a downward-ignorant (grows upward for simplicity; the shadow
// geometry is direction-independent) frame allocator.
type Stack struct {
	space *vmem.Space
	p     san.Poisoner
	// cp and fp are p's batching extensions, resolved once at construction;
	// nil when the poisoner only implements the base interface.
	cp    san.ChunkPoisoner
	fp    san.FramePoisoner
	rz    uint64
	start vmem.Addr
	limit vmem.Addr
	bump  vmem.Addr
	// high is the high-water mark of the bump frontier: Pop recycles bump
	// downward, but the simulated memory stays dirty up to the highest
	// frame ever pushed, which is the extent arena recycling must zero.
	high   vmem.Addr
	frames []frame
	// locals holds every open frame's locals, innermost frame last.
	locals []local
	// DetectUAR controls whether popped frames are poisoned as
	// stack-after-return (true) or unpoisoned for reuse (false).
	// ASan's default keeps it off; the Juliet UAR cases turn it on.
	DetectUAR bool
	// Oracle optionally mirrors ground truth.
	Oracle *oracle.Oracle
}

// Config parameterizes a Stack.
type Config struct {
	Redzone   uint64 // zero means DefaultRedzone
	DetectUAR bool
	Oracle    *oracle.Oracle
	// Start and Limit bound the stack region inside the space; both zero
	// means the whole space.
	Start, Limit vmem.Addr
}

// New returns a stack allocator over the whole space.
func New(space *vmem.Space, p san.Poisoner, cfg Config) *Stack {
	rz := cfg.Redzone
	if rz == 0 {
		rz = DefaultRedzone
	}
	rz = (rz + Align - 1) &^ (Align - 1)
	start, limit := cfg.Start, cfg.Limit
	if start == 0 && limit == 0 {
		start, limit = space.Base(), space.Limit()
	}
	cp, _ := p.(san.ChunkPoisoner)
	fp, _ := p.(san.FramePoisoner)
	return &Stack{
		space:     space,
		p:         p,
		cp:        cp,
		fp:        fp,
		rz:        rz,
		start:     start,
		limit:     limit,
		bump:      start,
		high:      start,
		DetectUAR: cfg.DetectUAR,
		Oracle:    cfg.Oracle,
	}
}

// Push opens a new frame.
func (s *Stack) Push() {
	s.frames = append(s.frames, frame{start: s.bump, locals: len(s.locals)})
}

// Alloca allocates a local of the given size in the current frame and
// returns its base, or ErrExhausted when the local and its redzones do
// not fit in the room left. Panics if no frame is open, a simulator bug.
func (s *Stack) Alloca(size uint64) (vmem.Addr, error) {
	if len(s.frames) == 0 {
		panic("stack: Alloca without a pushed frame")
	}
	if size == 0 {
		size = 1
	}
	// The size is compared before it is rounded: a size near 2^64 would
	// wrap the rounding (and need) to a small value.
	room := uint64(s.limit - s.bump)
	reserved := (size + Align - 1) &^ (Align - 1)
	need := s.rz + reserved + s.rz
	if size > room || need > room {
		return 0, fmt.Errorf("%w: a %d-byte local does not fit in the %d bytes left", ErrExhausted, size, room)
	}
	start := s.bump
	base := start + vmem.Addr(s.rz)
	s.bump += vmem.Addr(need)
	s.high = max(s.high, s.bump)
	s.locals = append(s.locals, local{base: base, size: size})

	s.poisonLocal(start, size)
	if s.Oracle != nil {
		tail := reserved - size
		s.Oracle.Alloc(base, size, s.rz, s.rz+tail, oracle.Stack, "")
	}
	return base, nil
}

// poisonLocal lays down one local's shadow image ([redzone][local][tail +
// redzone]) starting at start: one templated stamp when the poisoner
// batches, the classic three-call sequence otherwise.
func (s *Stack) poisonLocal(start vmem.Addr, size uint64) {
	if s.cp != nil {
		s.cp.PoisonChunk(start, s.rz, size, s.rz, san.StackRedzone, san.StackRedzone)
		return
	}
	reserved := (size + Align - 1) &^ (Align - 1)
	base := start + vmem.Addr(s.rz)
	s.p.Poison(start, s.rz, san.StackRedzone)
	s.p.MarkAllocated(base, size)
	s.p.Poison(base+vmem.Addr(reserved), s.rz, san.StackRedzone)
}

// PushLocals opens a new frame holding all the given locals at once and
// returns their bases in argument order. Semantically identical to Push
// followed by one Alloca per size (sizes of 0 are promoted to 1), but the
// frame's whole shadow image — every redzone and every local — is stamped
// in one sweep when the poisoner supports frame batching, which is how
// instrumented function prologues poison in one go instead of per-local.
// When the locals do not all fit in the room left it returns ErrExhausted
// and opens no frame.
func (s *Stack) PushLocals(sizes ...uint64) ([]vmem.Addr, error) {
	// Each size is compared before it is rounded, as in Alloca, and need
	// never exceeds room, so no sum can wrap.
	room := uint64(s.limit - s.bump)
	need := uint64(0)
	for _, size := range sizes {
		size = max(size, 1)
		left := room - need
		reserved := (size + Align - 1) &^ (Align - 1)
		if size > left || s.rz+reserved+s.rz > left {
			return nil, fmt.Errorf("%w: a frame of %d locals does not fit in the %d bytes left", ErrExhausted, len(sizes), room)
		}
		need += s.rz + reserved + s.rz
	}
	s.Push()
	if len(sizes) == 0 {
		return nil, nil
	}
	start := s.bump
	bases := make([]vmem.Addr, len(sizes))
	at := start
	for i, size := range sizes {
		size = max(size, 1)
		bases[i] = at + vmem.Addr(s.rz)
		s.locals = append(s.locals, local{base: bases[i], size: size})
		at += vmem.Addr(s.rz + ((size + Align - 1) &^ (Align - 1)) + s.rz)
	}
	s.bump += vmem.Addr(need)
	s.high = max(s.high, s.bump)
	if s.fp != nil {
		s.fp.PoisonFrame(start, s.rz, sizes)
	} else {
		for i, size := range sizes {
			s.poisonLocal(bases[i]-vmem.Addr(s.rz), max(size, 1))
		}
	}
	if s.Oracle != nil {
		for i, size := range sizes {
			size = max(size, 1)
			tail := ((size + Align - 1) &^ (Align - 1)) - size
			s.Oracle.Alloc(bases[i], size, s.rz, s.rz+tail, oracle.Stack, "")
		}
	}
	return bases, nil
}

// Pop closes the current frame. With DetectUAR the frame's memory is
// retired and poisoned as after-return; otherwise it is recycled for the
// next Push.
func (s *Stack) Pop() {
	if len(s.frames) == 0 {
		panic("stack: Pop without a pushed frame")
	}
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	locals := s.locals[f.locals:]
	s.locals = s.locals[:f.locals]
	size := uint64(s.bump - f.start)
	if size > 0 {
		s.p.Poison(f.start, size, san.StackAfterReturn)
	}
	if s.Oracle != nil {
		for _, l := range locals {
			s.Oracle.Free(l.base)
		}
	}
	if !s.DetectUAR {
		// Recycle the region: the next frame may reuse these addresses.
		s.bump = f.start
		if s.Oracle != nil {
			for _, l := range locals {
				s.Oracle.Recycle(l.base, l.size)
			}
		}
	}
}

// Depth returns the number of open frames.
func (s *Stack) Depth() int { return len(s.frames) }

// Reinit returns the stack to its just-constructed state and reports the
// arena footprint it releases ([start, high)). Unlike Reset it does
// not poison anything: the caller (rt.Env.Reset) returns the whole shadow
// to the pristine unallocated image, erasing redzones and after-return
// codes alike so a recycled arena is indistinguishable from a fresh one.
func (s *Stack) Reinit() uint64 {
	used := uint64(s.high - s.start)
	s.frames = s.frames[:0]
	s.locals = s.locals[:0]
	s.bump = s.start
	s.high = s.start
	return used
}

// Reset pops everything and recycles the whole stack region. Detection
// suites call it between cases.
func (s *Stack) Reset() {
	size := uint64(s.bump - s.start)
	if size > 0 {
		s.p.Poison(s.start, size, san.StackAfterReturn)
	}
	if s.Oracle != nil {
		for _, l := range s.locals {
			s.Oracle.Free(l.base)
		}
	}
	s.frames = s.frames[:0]
	s.locals = s.locals[:0]
	s.bump = s.start
}
