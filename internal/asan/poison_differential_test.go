package asan

import (
	"testing"

	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// Write-side differential suite for the ASan baseline: the word-wide and
// templated writers must leave exactly the shadow bytes and Stats the
// reference byte-loop writers leave, for every size class, shadow-word
// alignment and poison kind. Mirrors internal/core's poisoner suite so
// both sanitizers' fast lanes carry the same equivalence guarantee.

func poisonSizes() []uint64 {
	var sizes []uint64
	for _, q := range []int{0, 1, 2, 3, 4, 7, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 256, 257} {
		for _, rem := range []int{0, 1, 3, 7} {
			if s := uint64(q*8 + rem); s > 0 {
				sizes = append(sizes, s)
			}
		}
	}
	return sizes
}

var allPoisonKinds = []san.PoisonKind{
	san.RedzoneLeft, san.RedzoneRight, san.HeapFreed,
	san.StackRedzone, san.StackAfterReturn, san.GlobalRedzone,
}

func mustMatch(t *testing.T, name string, fast, ref *Sanitizer) {
	t.Helper()
	fr, rr := fast.Shadow().Snapshot(0, fast.Shadow().NumSegments()), ref.Shadow().Snapshot(0, ref.Shadow().NumSegments())
	for i := range fr {
		if fr[i] != rr[i] {
			t.Fatalf("%s: shadow diverged at segment %d: fast=%#x ref=%#x", name, i, fr[i], rr[i])
		}
	}
	if *fast.Stats() != *ref.Stats() {
		t.Fatalf("%s: stats diverged: fast=%+v ref=%+v", name, *fast.Stats(), *ref.Stats())
	}
}

func TestPoisonDifferentialMarkAllocated(t *testing.T) {
	for _, size := range poisonSizes() {
		for off := 0; off < 8; off++ {
			fast, ref, base := diffPair(1 << 13)
			b := base + vmem.Addr(off*8)
			fast.MarkAllocated(b, size)
			ref.MarkAllocated(b, size)
			mustMatch(t, "MarkAllocated(+"+itoa(uint64(off*8))+", "+itoa(size)+")", fast, ref)
		}
	}
}

func TestPoisonDifferentialPoison(t *testing.T) {
	for _, kind := range allPoisonKinds {
		for _, size := range poisonSizes() {
			for off := 0; off < 8; off += 3 {
				fast, ref, base := diffPair(1 << 13)
				fast.MarkAllocated(base, 4096)
				ref.MarkAllocated(base, 4096)
				b := base + vmem.Addr(off*8)
				fast.Poison(b, size, kind)
				ref.Poison(b, size, kind)
				mustMatch(t, "Poison(+"+itoa(uint64(off*8))+", "+itoa(size)+", kind "+itoa(uint64(kind))+")", fast, ref)
			}
		}
	}
}

func TestPoisonDifferentialPoisonChunk(t *testing.T) {
	for _, rz := range []uint64{8, 16, 32} {
		for _, size := range poisonSizes() {
			for off := 0; off < 8; off += 5 {
				fast, ref, base := diffPair(1 << 13)
				b := base + vmem.Addr(off*8)
				fast.PoisonChunk(b, rz, size, rz, san.RedzoneLeft, san.RedzoneRight)
				ref.PoisonChunk(b, rz, size, rz, san.RedzoneLeft, san.RedzoneRight)
				name := "PoisonChunk(rz " + itoa(rz) + ", size " + itoa(size) + ", +" + itoa(uint64(off*8)) + ")"
				mustMatch(t, name, fast, ref)

				threecall, _, base2 := diffPair(1 << 13)
				b2 := base2 + vmem.Addr(off*8)
				reserved := (size + 7) &^ 7
				threecall.Poison(b2, rz, san.RedzoneLeft)
				threecall.MarkAllocated(b2+vmem.Addr(rz), size)
				threecall.Poison(b2+vmem.Addr(rz+reserved), rz, san.RedzoneRight)
				mustMatch(t, name+" vs three-call", fast, threecall)
			}
		}
	}
}

func TestPoisonDifferentialPoisonFrame(t *testing.T) {
	frames := [][]uint64{
		{8},
		{0},
		{1, 2, 3},
		{24, 100, 7, 8},
		{64, 0, 129, 33, 15},
	}
	for _, sizes := range frames {
		for _, rz := range []uint64{8, 16} {
			fast, ref, base := diffPair(1 << 13)
			fast.PoisonFrame(base, rz, sizes)
			ref.PoisonFrame(base, rz, sizes)
			name := "PoisonFrame(rz " + itoa(rz) + ", " + itoa(uint64(len(sizes))) + " locals)"
			mustMatch(t, name, fast, ref)

			perLocal, _, base2 := diffPair(1 << 13)
			at := base2
			for _, size := range sizes {
				if size == 0 {
					size = 1
				}
				perLocal.PoisonChunk(at, rz, size, rz, san.StackRedzone, san.StackRedzone)
				at += vmem.Addr(rz + ((size + 7) &^ 7) + rz)
			}
			mustMatch(t, name+" vs per-local", fast, perLocal)
		}
	}
}

func TestPoisonDifferentialBeyondTemplateCap(t *testing.T) {
	size := uint64(maxTemplateSegs+3)*8 + 5
	fast, ref, base := diffPair(1 << 17)
	fast.MarkAllocated(base, size)
	ref.MarkAllocated(base, size)
	mustMatch(t, "MarkAllocated(over-cap)", fast, ref)

	fast.PoisonChunk(base, 16, size, 16, san.RedzoneLeft, san.RedzoneRight)
	ref.PoisonChunk(base, 16, size, 16, san.RedzoneLeft, san.RedzoneRight)
	mustMatch(t, "PoisonChunk(over-cap)", fast, ref)

	fast.Poison(base, size, san.HeapFreed)
	ref.Poison(base, size, san.HeapFreed)
	mustMatch(t, "Poison(over-cap)", fast, ref)
}
