package stack

import (
	"errors"
	"math"
	"testing"

	"giantsan/internal/oracle"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

type recPoisoner struct {
	base  vmem.Addr
	state []byte // 0 unknown, 1 addressable, 2 poisoned
	last  san.PoisonKind
}

func newRecPoisoner(sp *vmem.Space) *recPoisoner {
	return &recPoisoner{base: sp.Base(), state: make([]byte, sp.Size())}
}

func (r *recPoisoner) MarkAllocated(base vmem.Addr, size uint64) {
	for i := uint64(0); i < size; i++ {
		r.state[base-r.base+vmem.Addr(i)] = 1
	}
}

func (r *recPoisoner) Poison(base vmem.Addr, size uint64, kind san.PoisonKind) {
	r.last = kind
	for i := uint64(0); i < size; i++ {
		r.state[base-r.base+vmem.Addr(i)] = 2
	}
}

func (r *recPoisoner) addressable(a vmem.Addr, n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if r.state[a-r.base+vmem.Addr(i)] != 1 {
			return false
		}
	}
	return true
}

func newStack(t *testing.T, cfg Config) (*Stack, *recPoisoner, *oracle.Oracle) {
	t.Helper()
	sp := vmem.NewSpace(1 << 16)
	o := oracle.New(sp)
	cfg.Oracle = o
	p := newRecPoisoner(sp)
	return New(sp, p, cfg), p, o
}

// alloca is Alloca failing the test when the stack is exhausted.
func alloca(t *testing.T, s *Stack, size uint64) vmem.Addr {
	t.Helper()
	p, err := s.Alloca(size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pushLocals is PushLocals failing the test when the stack is exhausted.
func pushLocals(t *testing.T, s *Stack, sizes ...uint64) []vmem.Addr {
	t.Helper()
	bases, err := s.PushLocals(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return bases
}

func TestAllocaLayout(t *testing.T) {
	s, p, o := newStack(t, Config{})
	s.Push()
	a := alloca(t, s, 20)
	b := alloca(t, s, 8)
	if a%8 != 0 || b%8 != 0 {
		t.Error("locals not aligned")
	}
	if !p.addressable(a, 20) || !p.addressable(b, 8) {
		t.Error("locals not addressable")
	}
	if p.addressable(a-1, 1) || p.addressable(a+20, 1) {
		t.Error("redzones around first local addressable")
	}
	if !o.Addressable(a, 20) {
		t.Error("oracle disagrees")
	}
	if b <= a {
		t.Error("locals should be laid out in order")
	}
}

func TestAllocaWithoutFramePanics(t *testing.T) {
	s, _, _ := newStack(t, Config{})
	defer func() {
		if recover() == nil {
			t.Error("Alloca without frame did not panic")
		}
	}()
	alloca(t, s, 8)
}

func TestPopRecyclesWithoutUAR(t *testing.T) {
	s, p, _ := newStack(t, Config{})
	s.Push()
	a := alloca(t, s, 32)
	s.Pop()
	if p.addressable(a, 1) {
		t.Error("popped local still addressable")
	}
	s.Push()
	b := alloca(t, s, 32)
	if a != b {
		t.Errorf("expected frame recycling: %#x then %#x", a, b)
	}
	if !p.addressable(b, 32) {
		t.Error("recycled local not addressable")
	}
}

func TestPopRetiresWithUAR(t *testing.T) {
	s, p, _ := newStack(t, Config{DetectUAR: true})
	s.Push()
	a := alloca(t, s, 32)
	s.Pop()
	if p.addressable(a, 1) {
		t.Error("popped local still addressable")
	}
	if p.last != san.StackAfterReturn {
		t.Errorf("last poison kind = %v, want StackAfterReturn", p.last)
	}
	s.Push()
	b := alloca(t, s, 32)
	if a == b {
		t.Error("UAR mode must not recycle retired addresses")
	}
}

func TestNestedFrames(t *testing.T) {
	s, p, _ := newStack(t, Config{})
	s.Push()
	outer := alloca(t, s, 16)
	s.Push()
	inner := alloca(t, s, 16)
	if s.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", s.Depth())
	}
	s.Pop()
	if p.addressable(inner, 1) {
		t.Error("inner local survived its frame")
	}
	if !p.addressable(outer, 16) {
		t.Error("outer local must survive inner pop")
	}
	s.Pop()
	if s.Depth() != 0 {
		t.Errorf("Depth = %d, want 0", s.Depth())
	}
}

func TestPopEmptyPanics(t *testing.T) {
	s, _, _ := newStack(t, Config{})
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty stack did not panic")
		}
	}()
	s.Pop()
}

func TestReset(t *testing.T) {
	s, p, _ := newStack(t, Config{DetectUAR: true})
	s.Push()
	a := alloca(t, s, 64)
	s.Push()
	alloca(t, s, 8)
	s.Reset()
	if s.Depth() != 0 {
		t.Error("Reset left frames open")
	}
	if p.addressable(a, 1) {
		t.Error("Reset left locals addressable")
	}
	// The region is reusable after Reset.
	s.Push()
	b := alloca(t, s, 64)
	if !p.addressable(b, 64) {
		t.Error("post-Reset alloca broken")
	}
}

func TestZeroSizeAlloca(t *testing.T) {
	s, p, _ := newStack(t, Config{})
	s.Push()
	a := alloca(t, s, 0)
	if !p.addressable(a, 1) {
		t.Error("zero-size local should reserve one byte")
	}
}

// TestAllocaExhaustionIsAnError: a local larger than the room left, and
// one so near 2^64 that rounding it up to Align would wrap, both come
// back as ErrExhausted and leave the stack as it was, through Alloca and
// through PushLocals.
func TestAllocaExhaustionIsAnError(t *testing.T) {
	s, _, _ := newStack(t, Config{})
	s.Push()
	before := alloca(t, s, 8)
	for _, size := range []uint64{1 << 16, math.MaxUint64 - 3, math.MaxUint64} {
		if p, err := s.Alloca(size); !errors.Is(err, ErrExhausted) {
			t.Errorf("Alloca(%d) = %#x, %v; want ErrExhausted", size, p, err)
		}
	}
	if after := alloca(t, s, 8); after != before+8+2*DefaultRedzone {
		t.Errorf("a failed Alloca moved the stack: next local at %#x, want %#x", after, before+8+2*DefaultRedzone)
	}
	// PushLocals makes the same per-size check and opens no frame when
	// any local does not fit.
	depth := s.Depth()
	for _, sizes := range [][]uint64{{1 << 16}, {8, math.MaxUint64 - 3}, {math.MaxUint64, 8}, {1 << 14, 1 << 14, 1 << 14, 1 << 14}} {
		if bases, err := s.PushLocals(sizes...); !errors.Is(err, ErrExhausted) {
			t.Errorf("PushLocals(%v) = %#x, %v; want ErrExhausted", sizes, bases, err)
		}
	}
	if s.Depth() != depth {
		t.Errorf("a failed PushLocals left depth %d, want %d", s.Depth(), depth)
	}
	if bases := pushLocals(t, s, 8); bases[0] != before+2*(8+2*DefaultRedzone) {
		t.Errorf("a failed PushLocals moved the stack: next local at %#x, want %#x", bases[0], before+2*(8+2*DefaultRedzone))
	}
}
