package core_test

import (
	"math"
	"testing"

	"giantsan/internal/core"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/vmem"
)

// checkFaultAgrees runs the segment-stride walk and the byte-walk
// reference over [l, r) and fails on any difference in the report, or
// on any Stats movement besides the one Errors increment each makes.
func checkFaultAgrees(t *testing.T, g *core.Sanitizer, l, r vmem.Addr, what string) {
	t.Helper()
	before := *g.Stats()
	got := g.Fault(l, r, report.Write)
	mid := *g.Stats()
	want := g.FaultRef(l, r, report.Write)
	if *got != *want {
		t.Fatalf("%s: fault[%#x,%#x) = %+v, byte walk = %+v", what, l, r, *got, *want)
	}
	before.Errors++
	if mid != before {
		t.Fatalf("%s: fault[%#x,%#x) moved Stats beyond Errors:\n%+v\n%+v", what, l, r, before, mid)
	}
}

// TestFaultMatchesByteWalkEveryCode plants every shadow code (all 256
// byte values: folded, k-partial, the error codes and the undefined
// ones) in every segment of a four-segment space over a folded, a
// partial and an error-coded background, and compares the two walks on
// every [l, r) from one segment below the space to one above it — so
// both space edges (the WildAccess branch) are covered. A second space
// ends at the top of the address space, where the segment walk's next
// segment would wrap to 0.
func TestFaultMatchesByteWalkEveryCode(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}
	const segs = 4
	for _, base := range []vmem.Addr{0x1000, math.MaxUint64 - segs*8 + 1} {
		g := core.New(vmem.NewSpaceAt(base, segs*8))
		sh := g.Shadow()
		lo := base - 8
		hi := base + segs*8 + 8 // one segment past the space
		if hi < base {
			hi = math.MaxUint64 // the space ends the address space
		}
		for _, bg := range []uint8{core.CodeGood, core.PartialCode(3), core.CodeHeapFreed} {
			for p := 0; p < segs; p++ {
				for c := 0; c < 256; c++ {
					sh.Fill(0, segs, bg)
					sh.StoreSeg(p, uint8(c))
					for l := lo; l < hi; l++ {
						for r := l + 1; r <= hi && r > l; r++ {
							checkFaultAgrees(t, g, l, r, "synthetic")
						}
					}
				}
			}
		}
	}
}

// TestFaultMatchesByteWalkSmallModels compares the walks on the heap
// layouts of exhaustive_test.go: one object of every size up to 128 bytes
// between its redzones, every [l, r) around it (so every partial prefix
// k = 1..7 and every run of folded segments), and two adjacent objects,
// one of them freed.
func TestFaultMatchesByteWalkSmallModels(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}
	for size := uint64(1); size <= 128; size++ {
		env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 16})
		g := env.San().(*core.Sanitizer)
		base, err := env.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		for l := base - 16; l < base+vmem.Addr(size)+24; l++ {
			for r := l + 1; r <= base+vmem.Addr(size)+24; r++ {
				checkFaultAgrees(t, g, l, r, "one object")
			}
		}
	}
	for _, sizes := range [][2]uint64{{24, 24}, {17, 40}, {64, 8}, {100, 100}} {
		env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 16})
		g := env.San().(*core.Sanitizer)
		a, _ := env.Malloc(sizes[0])
		b, _ := env.Malloc(sizes[1])
		if err := env.Free(a); err != nil {
			t.Fatal(err)
		}
		for l := a - 8; l < b+vmem.Addr(sizes[1])+8; l++ {
			for r := l + 1; r <= b+vmem.Addr(sizes[1])+8; r++ {
				checkFaultAgrees(t, g, l, r, "two objects")
			}
		}
	}
}
