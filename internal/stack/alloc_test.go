package stack

import (
	"testing"

	"giantsan/internal/core"
	"giantsan/internal/vmem"
)

// TestWarmFrameCycleAllocatesNothing: once the stack has been as deep as a
// call needs, a Push/Alloca×3/Pop cycle allocates no Go memory — frames
// are values and locals share one slice — and neither does the template
// stamp of each local.
func TestWarmFrameCycleAllocatesNothing(t *testing.T) {
	sp := vmem.NewSpace(1 << 16)
	s := New(sp, core.New(sp), Config{})
	cycle := func() {
		s.Push()
		for _, size := range []uint64{8, 40, 100} {
			alloca(t, s, size)
		}
		s.Pop()
	}
	cycle() // warm: frame and local capacity, templates
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocations per warm Push/Alloca×3/Pop, want 0", n)
	}
}
