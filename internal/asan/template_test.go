package asan

import (
	"testing"

	"giantsan/internal/san"
	"giantsan/internal/shadow"
)

// TestTemplateTablesStayBounded mirrors core's test for the twin tables:
// stamping 60,000 distinct chunk sizes leaves every template table at
// most its fixed slot count, and every stamp still equals the reference
// writers' bytes, including the stamps of sizes whose slot a colliding
// size took over in between.
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
