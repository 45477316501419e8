package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
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
// or the same error string, and no input makes any of them panic. When
// decoding fails at event k, the ReadAll leg replays the k-1 events
// decoded before it, as the streaming legs do, and reports the decode
// error only if those replay cleanly.
//
//	go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 10s ./internal/trace
func FuzzReplay(f *testing.F) {
	newEnv := func() rt.Runtime { return rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 16}) }
	// Every fresh runtime places its first malloc at the same address, so
	// this offset aims the 8-byte access at 0xfffffffffffffffc: its end
	// wraps past 2^64, which the checkers must report, not pass.
	first, err := newEnv().Malloc(16)
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, []Event{
		{Op: OpMalloc, Reg: 0, Size: 16},
		{Op: OpAccess, Reg: 0, Off: int64(0xfffffffffffffffc - first), Width: 8},
	}, []Event{
		{Op: OpMalloc, Reg: 0xFFFFFFFF, Size: 16},
		{Op: OpAccess, Reg: 0xFFFFFFFF, Off: 16, Width: 1},
		{Op: OpFree, Reg: 0xFFFFFFFE},
	}, []Event{
		{Op: OpPush},
		{Op: OpAlloca, Reg: 1, Size: math.MaxUint64 - 3},
	})
	// A push and an alloca whose register and size are ASCII '0' bytes,
	// which exhausts the simulated stack, and a malloc of 0xFFFFFFFFFFFF3030
	// bytes, whose chunk rounding would wrap.
	f.Add([]byte("GST1\x05\x07000000000000"))
	f.Add([]byte("GST1\x01000000\xff\xff\xff\xff\xff\xff"))
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
	f.Fuzz(func(t *testing.T, data []byte) {
		inMemory := outcome(ReplayBytes(data, newEnv(), true))
		streamed := outcome(Replay(bytes.NewReader(data), newEnv(), true))
		prefix, decodeErr := readPrefix(data)
		if _, err := ReadAll(bytes.NewReader(data)); fmt.Sprint(err) != fmt.Sprint(decodeErr) {
			t.Fatalf("ReadAll error %v, Next loop error %v", err, decodeErr)
		}
		res, err := ReplayEvents(prefix, newEnv(), true)
		if err == nil && decodeErr != nil {
			err = decodeErr
		}
		decoded := outcome(res, err)
		if inMemory != streamed || inMemory != decoded {
			t.Fatalf("replays disagree\nReplayBytes:          %s\nReplay:               %s\nReadAll+ReplayEvents: %s",
				inMemory, streamed, decoded)
		}
	})
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
