package trace

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"giantsan/internal/lfp"
	"giantsan/internal/report"
	"giantsan/internal/rt"
)

// record builds a small trace: alloc, clean accesses, one overflow, a
// stack frame, a UAF.
func record(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	heapReg, err := w.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	w.Access(heapReg, 0, 8, true)
	w.Access(heapReg, 92, 8, false)
	w.Range(heapReg, 0, 100, true)
	w.Access(heapReg, 100, 1, true) // overflow
	w.Push()
	stkReg, _ := w.Alloca(32)
	w.Access(stkReg, 0, 8, true)
	w.Pop()
	w.Free(heapReg)
	w.Access(heapReg, 0, 1, false) // UAF
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := record(t)
	r := NewReader(bytes.NewReader(data))
	var ops []Op
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, ev.Op)
	}
	want := []Op{OpMalloc, OpAccess, OpAccess, OpRange, OpAccess, OpPush, OpAlloca, OpAccess, OpPop, OpFree, OpAccess}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
}

func TestReplayDetections(t *testing.T) {
	data := record(t)
	for _, kind := range []rt.Kind{rt.GiantSan, rt.ASan} {
		env := rt.New(rt.Config{Kind: kind, HeapBytes: 1 << 20})
		res, err := Replay(bytes.NewReader(data), env, kind == rt.GiantSan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events != 11 {
			t.Errorf("%v: events = %d", kind, res.Events)
		}
		// Exactly two violations: the overflow and the UAF.
		if res.Errors.Total() != 2 {
			t.Errorf("%v: errors = %d, want 2 (%v)", kind, res.Errors.Total(), res.Errors.Errors)
		}
		kinds := map[report.Kind]bool{}
		for _, e := range res.Errors.Errors {
			kinds[e.Kind] = true
		}
		if !kinds[report.UseAfterFree] {
			t.Errorf("%v: UAF missing", kind)
		}
	}
}

func TestReplayUnderLFP(t *testing.T) {
	data := record(t)
	run := lfp.New(lfp.Config{HeapBytes: 8 << 20, MaxClass: 1 << 12})
	res, err := Replay(bytes.NewReader(data), run, true)
	if err != nil {
		t.Fatal(err)
	}
	// LFP: the off-by-one at 100 hides in the 112-slot; the UAF (no
	// reuse) is caught. One error.
	if res.Errors.Total() != 1 || res.Errors.Errors[0].Kind != report.UseAfterFree {
		t.Errorf("LFP errors: %v", res.Errors.Errors)
	}
}

func TestBadMagic(t *testing.T) {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	_, err := Replay(strings.NewReader("not a trace"), env, true)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("err = %v", err)
	}
}

func TestMalformedStreams(t *testing.T) {
	env := func() rt.Runtime { return rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20}) }

	// Truncated operand.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Malloc(64)
	w.Flush()
	data := buf.Bytes()
	if _, err := Replay(bytes.NewReader(data[:len(data)-3]), env(), true); err == nil {
		t.Error("truncated stream accepted")
	}

	// Unknown opcode.
	bad := append(append([]byte{}, data...), 0xEE)
	if _, err := Replay(bytes.NewReader(bad), env(), true); err == nil {
		t.Error("unknown opcode accepted")
	}

	// Access through unset register.
	var buf2 bytes.Buffer
	w2 := NewWriter(&buf2)
	w2.Access(99, 0, 8, false)
	w2.Flush()
	if _, err := Replay(bytes.NewReader(buf2.Bytes()), env(), true); err == nil {
		t.Error("unset register accepted")
	}

	// Pop without push.
	var buf3 bytes.Buffer
	w3 := NewWriter(&buf3)
	w3.Pop()
	w3.Flush()
	if _, err := Replay(bytes.NewReader(buf3.Bytes()), env(), true); err == nil {
		t.Error("unbalanced pop accepted")
	}
}

// TestHostileSizesAreReplayErrors: an allocation size chosen by the
// trace that the runtime cannot hold — an alloca that exhausts the
// simulated stack, or an alloca or malloc so near 2^64 that the
// allocator's size rounding would wrap — fails the replay with a trace
// error at that event, under every runtime and from both feeders.
func TestHostileSizesAreReplayErrors(t *testing.T) {
	runtimes := map[string]func() rt.Runtime{
		"giantsan": func() rt.Runtime { return rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 16}) },
		"asan":     func() rt.Runtime { return rt.New(rt.Config{Kind: rt.ASan, HeapBytes: 1 << 16}) },
		"lfp":      func() rt.Runtime { return lfp.New(lfp.Config{HeapBytes: 1 << 20, MaxClass: 1 << 16}) },
	}
	encode := func(events ...Event) []byte {
		enc, err := Encode(events)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		// FuzzReplay's finds: a push, then an alloca, or a malloc, whose
		// register and size are ASCII '0' bytes (and 0xFF bytes).
		{"exhausting alloca", []byte("GST1\x05\x07000000000000"), "trace: event 2: "},
		{"wrapping alloca", encode(Event{Op: OpPush}, Event{Op: OpAlloca, Reg: 1, Size: math.MaxUint64 - 3}), "trace: event 2: "},
		{"wrapping malloc", []byte("GST1\x01000000\xff\xff\xff\xff\xff\xff"), "trace: event 1: "},
	}
	for _, c := range cases {
		for label, env := range runtimes {
			for feeder, replay := range map[string]func() (*ReplayResult, error){
				"ReplayBytes": func() (*ReplayResult, error) { return ReplayBytes(c.data, env(), true) },
				"Replay":      func() (*ReplayResult, error) { return Replay(bytes.NewReader(c.data), env(), true) },
			} {
				if _, err := replay(); err == nil || !strings.HasPrefix(err.Error(), c.want) {
					t.Errorf("%s under %s via %s: err = %v, want %q...", c.name, label, feeder, err, c.want)
				}
			}
		}
	}
}

func TestEmptyTraceIsJustMagic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	res, err := Replay(bytes.NewReader(buf.Bytes()), env, true)
	if err != nil || res.Events != 0 {
		t.Errorf("res=%+v err=%v", res, err)
	}
}
