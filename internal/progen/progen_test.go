package progen_test

import (
	"testing"

	"giantsan/internal/canary"
	"giantsan/internal/core"
	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	. "giantsan/internal/progen"
	"giantsan/internal/rt"
)

// run executes p under one leg of the differential matrix.
func run(t *testing.T, p *ir.Prog, leg canary.Leg) *interp.Result {
	t.Helper()
	res, err := canary.Run(p, leg, 16<<20)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res
}

// TestCleanProgramsNoFalsePositives: DESIGN.md's core differential
// property — on in-bounds-by-construction programs, no sanitizer reports
// anything and no instrumentation profile changes program semantics.
func TestCleanProgramsNoFalsePositives(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := Clean(seed)
		var base uint64
		for i, leg := range canary.Legs() {
			res := run(t, p, leg)
			if res.Errors.Total() != 0 {
				t.Fatalf("seed %d: %s raised a false positive: %v",
					seed, leg.Name(), res.Errors.Errors[0])
			}
			if i == 0 {
				base = res.Checksum
			} else if res.Checksum != base {
				t.Fatalf("seed %d: %s changed semantics (checksum %#x vs %#x)",
					seed, leg.Name(), res.Checksum, base)
			}
		}
	}
}

// TestBuggyProgramsDetected: the planted out-of-bounds access (inside the
// 16-byte redzone) must be reported by every shadow-based sanitizer under
// every optimization profile — elimination and caching must never
// sacrifice detection.
func TestBuggyProgramsDetected(t *testing.T) {
	detectingLegs := canary.Legs()[1:] // skip native
	planted := 0
	for seed := int64(0); seed < 60; seed++ {
		p, ok := Buggy(seed)
		if !ok {
			continue
		}
		planted++
		for _, leg := range detectingLegs {
			res := run(t, p, leg)
			if res.Errors.Total() == 0 {
				t.Fatalf("seed %d: %s missed the planted bug", seed, leg.Name())
			}
		}
	}
	if planted < 40 {
		t.Fatalf("only %d/60 seeds planted a bug; generator broken?", planted)
	}
}

// TestGiantSanAgreesWithASanOnBuggyPrograms: both tools see the same
// layouts, so their *detection* verdict must agree even though their
// check counts differ wildly.
func TestGiantSanAgreesWithASanOnBuggyPrograms(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		p, ok := Buggy(seed)
		if !ok {
			continue
		}
		g := run(t, p, canary.LegFor(rt.GiantSan))
		a := run(t, p, canary.LegFor(rt.ASan))
		if (g.Errors.Total() > 0) != (a.Errors.Total() > 0) {
			t.Fatalf("seed %d: giantsan=%d errors, asan=%d errors",
				seed, g.Errors.Total(), a.Errors.Total())
		}
	}
}

// TestShadowInvariantsAfterFuzzRuns: after each clean fuzz program, the
// whole shadow must still satisfy every Definition 1 invariant against
// ground truth (catches poisoning bugs that individual checks may mask).
func TestShadowInvariantsAfterFuzzRuns(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		p := Clean(seed)
		env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 16 << 20, WithOracle: true})
		ex, err := interp.Prepare(p, instrument.GiantSanProfile, env)
		if err != nil {
			t.Fatal(err)
		}
		if res := ex.Run(); res.Errors.Total() != 0 {
			t.Fatalf("seed %d: %v", seed, res.Errors.Errors[0])
		}
		g := env.San().(*core.Sanitizer)
		if err := g.ValidateShadow(env.Oracle()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestGeneratorDeterminism: same seed, same program.
func TestGeneratorDeterminism(t *testing.T) {
	p1 := Clean(42)
	p2 := Clean(42)
	r1 := run(t, p1, canary.LegFor(rt.GiantSan))
	r2 := run(t, p2, canary.LegFor(rt.GiantSan))
	if r1.Checksum != r2.Checksum || r1.Stats.Accesses != r2.Stats.Accesses {
		t.Error("generator not deterministic")
	}
}

// TestGeneratorCoverage: across seeds, every instrumentation mode must be
// exercised (eliminated, cached, direct, region).
func TestGeneratorCoverage(t *testing.T) {
	var agg interp.ExecStats
	for seed := int64(0); seed < 30; seed++ {
		res := run(t, Clean(seed), canary.LegFor(rt.GiantSan))
		agg.Eliminated += res.Stats.Eliminated
		agg.Cached += res.Stats.Cached
		agg.Direct += res.Stats.Direct
		agg.PreChecks += res.Stats.PreChecks
		agg.Accesses += res.Stats.Accesses
	}
	if agg.Eliminated == 0 || agg.Cached == 0 || agg.Direct == 0 || agg.PreChecks == 0 {
		t.Errorf("mode space not covered: %+v", agg)
	}
	if agg.Accesses < 10000 {
		t.Errorf("only %d dynamic accesses across seeds", agg.Accesses)
	}
}
