package trace

import (
	"bytes"
	"runtime"
	"testing"

	"giantsan/internal/rt"
)

// syntheticTrace encodes a clean trace of every opcode: objs heap objects
// touched by n accesses and ranges in total, one stack frame, then every
// object freed. Its register count is fixed by objs, its event count
// grows with n.
func syntheticTrace(t testing.TB, objs, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	regs := make([]uint32, objs)
	for i := range regs {
		regs[i], _ = w.Malloc(64)
	}
	for i := 0; i < n; i++ {
		reg := regs[i%objs]
		if i%4 == 3 {
			w.Range(reg, 8, 48, i%8 == 3)
		} else {
			w.Access(reg, int64(i%8)*8, 8, i%3 == 0)
		}
	}
	w.Push()
	stk, _ := w.Alloca(32)
	w.Access(stk, 0, 8, true)
	w.Pop()
	for _, reg := range regs {
		w.Free(reg)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderNextAllocatesNothing: once a Reader is warm, decoding an
// event allocates nothing, buffered (NewReader) or over the in-memory
// trace as ReplayBytes reads it.
func TestReaderNextAllocatesNothing(t *testing.T) {
	data := syntheticTrace(t, 4, 2000)
	for name, tr := range map[string]*Reader{
		"stream":    NewReader(bytes.NewReader(data)),
		"in-memory": {r: bytes.NewReader(data)},
	} {
		if _, err := tr.Next(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := tr.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Next, want 0", name, allocs)
		}
	}
}

// TestReplayBytesAllocationsIndependentOfEvents: an in-memory replay
// allocates a bounded number of times however many events it applies —
// a hundredfold longer trace over the same objects allocates no more.
func TestReplayBytesAllocationsIndependentOfEvents(t *testing.T) {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	allocs := func(n int) float64 {
		data := syntheticTrace(t, 8, n)
		return testing.AllocsPerRun(20, func() {
			env.Reset()
			res, err := ReplayBytes(data, env, true)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res.Errors.Total() != 0 {
				t.Fatalf("clean trace replayed with %d errors", res.Errors.Total())
			}
		})
	}
	short, long := allocs(100), allocs(10000)
	t.Logf("allocations per replay: %v with 100 accesses, %v with 10000", short, long)
	if long > short {
		t.Errorf("replaying 10000 accesses allocated %v times, 100 accesses %v", long, short)
	}
	if short > 64 {
		t.Errorf("replay allocated %v times, want a small constant", short)
	}
}

// TestHostileRegistersStayLinear: register numbers far above the event
// count — 0xFFFFFFFF in the first malloc — are bound and read back
// correctly without the register file growing with the numbers.
func TestHostileRegistersStayLinear(t *testing.T) {
	const n = 1000
	var events []Event
	for i := 0; i < n; i++ {
		reg := uint32(0xFFFFFFFF - 7919*i)
		events = append(events,
			Event{Op: OpMalloc, Reg: reg, Size: 16},
			Event{Op: OpAccess, Reg: reg, Off: 8, Width: 8})
	}
	data, err := Encode(events)
	if err != nil {
		t.Fatal(err)
	}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := ReplayBytes(data, env, true)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 2*n || res.Errors.Total() != 0 {
		t.Fatalf("replayed %d events with %d errors, want %d clean", res.Events, res.Errors.Total(), 2*n)
	}
	// A register file sized by the largest number would take tens of
	// GiB; the register map takes tens of bytes per register.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("replay of %d hostile registers allocated %d bytes", n, grew)
	}
}
