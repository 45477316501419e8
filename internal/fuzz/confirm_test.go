package fuzz

import (
	"testing"

	"giantsan/internal/canary"
	"giantsan/internal/progen"
	"giantsan/internal/rt"
	"giantsan/internal/trace"
)

// TestReplayClassRecyclesItsRuntime: the shrink loop's replays run on
// the campaign's pool. A clean replay shelves its runtime for the next
// candidate, which gets it back warm with the same verdict; a replay
// that fails drops its runtime.
func TestReplayClassRecyclesItsRuntime(t *testing.T) {
	p, ok := progen.BuggyKind(1, progen.BugKinds()[0])
	if !ok {
		t.Fatal("no buggy program at seed 1")
	}
	events, err := canary.RecordEvents(p, canary.LegFor(rt.GiantSan), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := &campaign{cfg: Config{HeapBytes: 4 << 20}, pool: rt.NewPool(1)}
	first := c.replayClass(events)
	if first == "" {
		t.Fatal("the buggy trace replays clean")
	}
	if again := c.replayClass(events); again != first {
		t.Fatalf("warm replay class %q, cold %q", again, first)
	}
	if s := c.pool.Stats(); s.Misses != 1 || s.Hits != 1 || s.Dropped != 0 || s.Size != 1 {
		t.Fatalf("after two clean replays: %+v", s)
	}
	if got := c.replayClass([]trace.Event{{Op: trace.OpFree, Reg: 7}}); got != "" {
		t.Fatalf("an invalid trace replays as %q", got)
	}
	if s := c.pool.Stats(); s.Dropped != 1 || s.Size != 0 {
		t.Fatalf("after a failed replay: %+v; want its runtime dropped", s)
	}
}
