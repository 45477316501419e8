package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"giantsan/internal/rt"
)

// addSeeds seeds a trace fuzz target: the empty stream, a bare and a
// truncated header, and the encoding of each event list, whole and with
// its last event cut short — a shared list plus the target's extras.
func addSeeds(f *testing.F, extra ...[]Event) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add([]byte("GST1\x09"))
	for _, events := range append([][]Event{
		{{Op: OpPush}, {Op: OpAlloca, Reg: 0, Size: 24}, {Op: OpPop}},
		{
			{Op: OpMalloc, Reg: 0, Size: 64},
			{Op: OpAccess, Reg: 0, Off: 60, Width: 8, Write: true},
			{Op: OpRange, Reg: 0, Off: -8, Size: 80},
			{Op: OpFree, Reg: 0},
			{Op: OpFree, Reg: 0},
		},
	}, extra...) {
		enc, err := Encode(events)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-3])
	}
}

// FuzzReadAll: ReadAll never panics, and any event list it decodes
// survives the codec round trip — ReadAll(Encode(events)) == events.
//
//	go test -run '^$' -fuzz '^FuzzReadAll$' -fuzztime 10s ./internal/trace
func FuzzReadAll(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := Encode(events)
		if err != nil {
			t.Fatalf("encode of decoded events failed: %v", err)
		}
		again, err := ReadAll(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode of the re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip changed the events\nin:  %+v\nout: %+v", events, again)
		}
	})
}

// FuzzReplay: the three ways to replay a trace agree on every input —
// the in-memory ReplayBytes, the streaming Replay, and ReadAll followed
// by ReplayEvents. They give the same result (event count and error log)
// or the same error string. A hostile trace can crash the simulated
// program (see simulatedCrash), which the service isolates per session;
// such a crash must be the same crash in every leg, and any other panic
// fails the target. When decoding fails at event k, the ReadAll leg
// replays the k-1 events decoded before it, as the streaming legs do, and
// reports the decode error only if those replay cleanly.
//
//	go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 10s ./internal/trace
func FuzzReplay(f *testing.F) {
	addSeeds(f, []Event{
		{Op: OpMalloc, Reg: 0xFFFFFFFF, Size: 16},
		{Op: OpAccess, Reg: 0xFFFFFFFF, Off: 16, Width: 1},
		{Op: OpFree, Reg: 0xFFFFFFFE},
	})
	newEnv := func() rt.Runtime { return rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 16}) }
	outcome := func(res *ReplayResult, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d events, %d errors\n", res.Events, res.Errors.Total())
		for _, e := range res.Errors.Errors {
			b.WriteString(e.Error())
			b.WriteByte('\n')
		}
		return b.String()
	}
	// leg runs one replay, turning a crash of the simulated program into
	// its outcome and re-raising every other panic.
	leg := func(run func() (*ReplayResult, error)) (out string) {
		defer func() {
			if v := recover(); v != nil {
				if !simulatedCrash(v) {
					panic(v)
				}
				out = fmt.Sprint("panic: ", v)
			}
		}()
		return outcome(run())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inMemory := leg(func() (*ReplayResult, error) { return ReplayBytes(data, newEnv(), true) })
		streamed := leg(func() (*ReplayResult, error) { return Replay(bytes.NewReader(data), newEnv(), true) })
		prefix, decodeErr := readPrefix(data)
		if _, err := ReadAll(bytes.NewReader(data)); fmt.Sprint(err) != fmt.Sprint(decodeErr) {
			t.Fatalf("ReadAll error %v, Next loop error %v", err, decodeErr)
		}
		decoded := leg(func() (*ReplayResult, error) {
			res, err := ReplayEvents(prefix, newEnv(), true)
			if err == nil && decodeErr != nil {
				return nil, decodeErr
			}
			return res, err
		})
		if inMemory != streamed || inMemory != decoded {
			t.Fatalf("replays disagree\nReplayBytes:          %s\nReplay:               %s\nReadAll+ReplayEvents: %s",
				inMemory, streamed, decoded)
		}
	})
}

// simulatedCrash reports whether a replay panic is one a trace can raise
// in the simulated program itself: an alloca past the simulated stack, or
// one whose size lies so near 2^64 that the stack's size rounding wraps,
// slips past the exhaustion check and overruns the shadow in Fill64.
func simulatedCrash(v any) bool {
	msg, _ := v.(string)
	return strings.HasPrefix(msg, "stack: simulated stack exhausted (") ||
		strings.HasPrefix(msg, "shadow: Fill64 span [")
}

// readPrefix decodes data with Next until the first error, returning the
// events before it and the error (nil at a clean end of stream).
func readPrefix(data []byte) ([]Event, error) {
	tr := NewReader(bytes.NewReader(data))
	var evs []Event
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}
