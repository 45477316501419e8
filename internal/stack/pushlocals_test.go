package stack

import (
	"testing"

	"giantsan/internal/core"
	"giantsan/internal/vmem"
)

// TestPushLocalsMatchesAllocaLoop: one PushLocals call must be observably
// identical — same bases, same shadow bytes, same Stats — to Push followed
// by one Alloca per size, under the real GiantSan encoding (which batches
// the whole frame into one template stamp when the frame poisoner path is
// taken).
func TestPushLocalsMatchesAllocaLoop(t *testing.T) {
	frames := [][]uint64{
		{8},
		{0},
		{1, 2, 3},
		{24, 100, 7, 8},
		{64, 0, 129, 33, 15},
	}
	for _, sizes := range frames {
		spA, spB := vmem.NewSpace(1<<16), vmem.NewSpace(1<<16)
		gA, gB := core.New(spA), core.New(spB)
		batched := New(spA, gA, Config{})
		looped := New(spB, gB, Config{})

		bases := pushLocals(t, batched, sizes...)
		looped.Push()
		var want []vmem.Addr
		for _, size := range sizes {
			want = append(want, alloca(t, looped, size))
		}
		if len(bases) != len(want) {
			t.Fatalf("PushLocals returned %d bases, want %d", len(bases), len(want))
		}
		for i := range want {
			if bases[i]-spA.Base() != want[i]-spB.Base() {
				t.Fatalf("frame %v: local %d at offset %#x, Alloca loop gives %#x",
					sizes, i, bases[i]-spA.Base(), want[i]-spB.Base())
			}
		}
		ra, rb := gA.Shadow().Snapshot(0, gA.Shadow().NumSegments()), gB.Shadow().Snapshot(0, gB.Shadow().NumSegments())
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("frame %v: shadow diverged at segment %d: batched=%d looped=%d",
					sizes, i, ra[i], rb[i])
			}
		}
		if *gA.Stats() != *gB.Stats() {
			t.Fatalf("frame %v: stats diverged: batched=%+v looped=%+v", sizes, *gA.Stats(), *gB.Stats())
		}
		if batched.Depth() != 1 || looped.Depth() != 1 {
			t.Fatalf("frame %v: depth batched=%d looped=%d, want 1", sizes, batched.Depth(), looped.Depth())
		}
	}
}

// TestPushLocalsFallback: with a poisoner that implements neither batching
// extension, PushLocals still lays out and poisons the frame correctly.
func TestPushLocalsFallback(t *testing.T) {
	s, p, o := newStack(t, Config{})
	bases := pushLocals(t, s, 16, 0, 40)
	if len(bases) != 3 {
		t.Fatalf("got %d bases, want 3", len(bases))
	}
	for i, want := range []uint64{16, 1, 40} {
		if !p.addressable(bases[i], want) {
			t.Errorf("local %d: %d bytes not addressable", i, want)
		}
		if p.state[bases[i]-p.base-1] != 2 {
			t.Errorf("local %d: left redzone not poisoned", i)
		}
	}
	if !o.Addressable(bases[2], 40) {
		t.Error("oracle does not know local 2")
	}
	s.Pop()
	if s.Depth() != 0 {
		t.Errorf("Depth = %d after pop", s.Depth())
	}
}

// TestPushLocalsEmptyFrame: no locals still opens a frame.
func TestPushLocalsEmptyFrame(t *testing.T) {
	s, _, _ := newStack(t, Config{})
	if bases := pushLocals(t, s); bases != nil {
		t.Errorf("PushLocals() = %v, want nil", bases)
	}
	if s.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1", s.Depth())
	}
	s.Pop()
}

// TestPushLocalsPopRetires: a batched frame pops like any other frame.
func TestPushLocalsPopRetires(t *testing.T) {
	s, p, _ := newStack(t, Config{DetectUAR: true})
	bases := pushLocals(t, s, 24, 8)
	s.Pop()
	for i, b := range bases {
		if p.addressable(b, 8) {
			t.Errorf("local %d still addressable after pop with DetectUAR", i)
		}
	}
}
