package progen_test

import (
	"testing"

	"giantsan/internal/canary"
	"giantsan/internal/ir"
	. "giantsan/internal/progen"
	"giantsan/internal/report"
	"giantsan/internal/rt"
)

// expectedKinds maps each planted bug kind to the report kinds a
// sanitizer may legitimately classify it as. Underflow accesses recorded
// relative to a neighbouring chunk can surface as overflow of that
// chunk, but under direct execution (anchored at the victim) the
// classification is exact.
var expectedKinds = map[BugKind][]report.Kind{
	BugOverflow:     {report.HeapBufferOverflow},
	BugUnderflow:    {report.HeapBufferUnderflow},
	BugUseAfterFree: {report.UseAfterFree},
	BugDoubleFree:   {report.DoubleFree},
}

// TestBuggyKindCorpusCoversEveryErrorKind: the canary's seed corpus must
// contain at least one detected program per error kind, and the planted
// bug must be classified as that kind under direct GiantSan execution.
func TestBuggyKindCorpusCoversEveryErrorKind(t *testing.T) {
	for _, kind := range BugKinds() {
		planted, classified := 0, 0
		for seed := int64(0); seed < 20; seed++ {
			p, ok := BuggyKind(seed, kind)
			if !ok {
				continue
			}
			planted++
			res := run(t, p, canary.LegFor(rt.GiantSan))
			if res.Errors.Total() == 0 {
				t.Fatalf("%s seed %d: planted bug not detected", kind, seed)
			}
			for _, want := range expectedKinds[kind] {
				if res.Errors.CountKind(want) > 0 {
					classified++
					break
				}
			}
		}
		if planted == 0 {
			t.Fatalf("%s: no seed in 0..19 planted a bug", kind)
		}
		if classified == 0 {
			t.Fatalf("%s: no planted bug was classified as %v", kind, expectedKinds[kind])
		}
	}
}

// TestBuggyKindOverflowMatchesBuggy: the overflow kind is the existing
// Buggy generator — byte-identical programs, so the committed
// BENCH_tiers.json corpus is unchanged by the kind extension.
func TestBuggyKindOverflowMatchesBuggy(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		a, okA := Buggy(seed)
		b, okB := BuggyKind(seed, BugOverflow)
		if okA != okB {
			t.Fatalf("seed %d: ok mismatch %v vs %v", seed, okA, okB)
		}
		if !okA {
			continue
		}
		ra := run(t, a, canary.LegFor(rt.GiantSan))
		rb := run(t, b, canary.LegFor(rt.GiantSan))
		if ra.Checksum != rb.Checksum || ra.Stats.Accesses != rb.Stats.Accesses {
			t.Fatalf("seed %d: BuggyKind(BugOverflow) diverged from Buggy", seed)
		}
	}
}

// TestGeneratedProgramsNeverVacuous: every generated program performs at
// least one dynamic memory access (a zero-access program would make
// fast-vs-reference differential runs pass vacuously), and every
// allocation is at least minAllocSize bytes.
func TestGeneratedProgramsNeverVacuous(t *testing.T) {
	var walk func([]ir.Stmt)
	var minSize int64 = 1 << 62
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ir.Malloc:
				if c, ok := st.Size.(ir.Const); ok && int64(c) < minSize {
					minSize = int64(c)
				}
			case *ir.Loop:
				walk(st.Body)
			case *ir.If:
				walk(st.Then)
				walk(st.Else)
			case *ir.Call:
				walk(st.Body)
			case *ir.Frame:
				walk(st.Body)
			}
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		p := Clean(seed)
		walk(p.Body)
		res := run(t, p, canary.LegFor(rt.GiantSan))
		if res.Stats.Accesses == 0 {
			t.Fatalf("seed %d: clean program performed no memory accesses", seed)
		}
	}
	if minSize < MinAllocSize {
		t.Fatalf("generator emitted a %d-byte allocation (floor %d)", minSize, MinAllocSize)
	}
}
