package core

import (
	"testing"

	"giantsan/internal/san"
	"giantsan/internal/shadow"
)

// TestTemplateTablesStayBounded: stamping 60,000 distinct chunk sizes —
// what a replay of distinct-size malloc/free pairs can send a server —
// leaves every template table at most its fixed slot count, and every
// stamp still equals the reference writers' bytes, including the stamps
// of sizes whose slot a colliding size took over in between.
func TestTemplateTablesStayBounded(t *testing.T) {
	const distinct = 60000
	const rz = 16
	fast, ref, base := diffPair(1 << 17)
	l := fast.Shadow().Index(base)
	stamp := func(size uint64) {
		t.Helper()
		fast.PoisonChunk(base, rz, size, rz, san.RedzoneLeft, san.RedzoneRight)
		ref.PoisonChunk(base, rz, size, rz, san.RedzoneLeft, san.RedzoneRight)
		_, _, _, total := chunkSegs(rz, size, rz)
		for p := l; p < l+total; p += shadow.WideSegs {
			if f, r := fast.Shadow().LoadWide(p), ref.Shadow().LoadWide(p); f != r {
				t.Fatalf("size %d: shadow word at segment %d: fast %#x, reference %#x", size, p, f, r)
			}
		}
	}
	for size := uint64(1); size <= distinct; size++ {
		stamp(size)
	}
	// Revisit a spread of sizes after the sweep has overwritten most slots.
	for size := uint64(1); size <= distinct; size += 997 {
		stamp(size)
	}
	if *fast.Stats() != *ref.Stats() {
		t.Fatalf("stats diverged: fast=%+v ref=%+v", *fast.Stats(), *ref.Stats())
	}
	for _, tab := range []struct {
		name     string
		n, slots int
	}{
		{"chunk", chunkTemplates.Len(), chunkSlots},
		{"frame", frameTemplates.Len(), frameSlots},
	} {
		if tab.n > tab.slots {
			t.Errorf("%s templates: %d entries, more than the %d slots", tab.name, tab.n, tab.slots)
		}
	}
}

// TestLadderTemplateMatchesDegrees: every ladder up to the template cap,
// a suffix of the one static ladder, holds FoldedCode(DegreeAt(q, j)).
func TestLadderTemplateMatchesDegrees(t *testing.T) {
	for q := 1; q <= maxTemplateSegs; q++ {
		l := ladderTemplate(q)
		if len(l) != q {
			t.Fatalf("ladder %d has %d codes", q, len(l))
		}
		for j, code := range l {
			if want := FoldedCode(DegreeAt(q, j)); code != want {
				t.Fatalf("ladder %d segment %d: code %d, want %d", q, j, code, want)
			}
		}
	}
}

// TestFrameTemplateBounds: frames up to and past maxFrameLocals stamp the
// reference bytes, and a warm stamp allocates nothing on either side of
// the bound — the memoized frame's key fits its stack buffer, and a larger
// frame goes local by local.
func TestFrameTemplateBounds(t *testing.T) {
	for _, n := range []int{1, maxFrameLocals, maxFrameLocals + 1, 2 * maxFrameLocals} {
		sizes := make([]uint64, n)
		for i := range sizes {
			sizes[i] = uint64(i*37%300) + 1
		}
		fast, ref, base := diffPair(1 << 16)
		fast.PoisonFrame(base, 16, sizes)
		ref.PoisonFrame(base, 16, sizes)
		mustMatch(t, "PoisonFrame("+itoa(uint64(n))+" locals)", fast, ref)
		if allocs := testing.AllocsPerRun(20, func() { fast.PoisonFrame(base, 16, sizes) }); allocs != 0 {
			t.Errorf("%d locals: %v allocations per warm PoisonFrame, want 0", n, allocs)
		}
	}
}
