package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadAll: ReadAll never panics, and any event list it decodes
// survives the codec round trip — ReadAll(Encode(events)) == events.
//
//	go test -run '^$' -fuzz '^FuzzReadAll$' -fuzztime 10s ./internal/trace
func FuzzReadAll(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add([]byte("GST1\x09"))
	for _, events := range [][]Event{
		{{Op: OpPush}, {Op: OpAlloca, Reg: 0, Size: 24}, {Op: OpPop}},
		{
			{Op: OpMalloc, Reg: 0, Size: 64},
			{Op: OpAccess, Reg: 0, Off: 60, Width: 8, Write: true},
			{Op: OpRange, Reg: 0, Off: -8, Size: 80},
			{Op: OpFree, Reg: 0},
			{Op: OpFree, Reg: 0},
		},
	} {
		enc, err := Encode(events)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-3])
	}
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
