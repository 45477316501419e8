package canary

import (
	"reflect"
	"testing"

	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// TestWarmRunsMatchFirstRuns: a Canary's recorder and replay legs run on
// runtimes recycled through its pool. Running the same seeds a second
// time — every runtime now warm — must give Results identical to the
// first pass, field for field.
func TestWarmRunsMatchFirstRuns(t *testing.T) {
	c, err := New(Config{Kind: rt.GiantSan})
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 15
	pass := func() []*Result {
		out := make([]*Result, seeds)
		for seed := range out {
			res, err := c.RunSeed(int64(seed))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			out[seed] = res
		}
		return out
	}
	first := pass()
	cold := c.pool.Stats()
	second := pass()
	warm := c.pool.Stats()
	if warm.Misses != cold.Misses || warm.Hits == cold.Hits || warm.Dropped != 0 {
		t.Fatalf("second pass not all warm: after first %+v, after second %+v", cold, warm)
	}
	for seed := range first {
		if !reflect.DeepEqual(first[seed], second[seed]) {
			t.Fatalf("seed %d: warm result differs:\nfirst:  %+v\nsecond: %+v", seed, first[seed], second[seed])
		}
	}
}

// panicPlant wraps the fast leg with a sanitizer whose checks panic.
type panicPlant struct{}

func (panicPlant) Name() string { return "test-panic" }

func (panicPlant) Wrap(run rt.Runtime) rt.Runtime {
	return &plantedRuntime{Runtime: run, s: &panicSan{run.San()}}
}

type panicSan struct{ san.Sanitizer }

func (panicSan) CheckAccess(vmem.Addr, uint64, report.AccessType) *report.Error {
	panic("planted check panic")
}

func (panicSan) CheckAnchored(vmem.Addr, vmem.Addr, uint64, report.AccessType) *report.Error {
	panic("planted check panic")
}

// TestPanickingLegDropsItsEnv: a leg that panics returns an error, and
// its runtime is dropped, not shelved — the pool's Dropped counter shows
// it, and the next replay of that leg builds a fresh runtime.
func TestPanickingLegDropsItsEnv(t *testing.T) {
	c, err := New(Config{Kind: rt.GiantSan})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := programFor(5)
	events, err := c.recordEvents(p)
	if err != nil {
		t.Fatal(err)
	}
	c.plant = panicPlant{}
	if _, _, _, err := c.TripleReplay(events); err == nil {
		t.Fatal("a panicking fast leg replayed without error")
	}
	if s := c.pool.Stats(); s.Dropped != 1 || s.Size != 0 {
		t.Fatalf("after the panic: %+v; want the fast leg's runtime dropped", s)
	}
	c.plant = nil
	if _, _, _, err := c.TripleReplay(events); err != nil {
		t.Fatal(err)
	}
	if s := c.pool.Stats(); s.Dropped != 1 || s.Misses != 4 || s.Size != 3 {
		t.Fatalf("after an honest replay: %+v; want the three legs shelved", s)
	}
}
