package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"giantsan/internal/rt"
)

// TestDecodeErrorsCarryOffsetAndIndex: decode failures must name the
// 1-based event ordinal and the byte offset where the broken event
// starts, so shrinker validity checks and service replay 400s point at
// the exact spot in the stream.
func TestDecodeErrorsCarryOffsetAndIndex(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r1, _ := w.Malloc(64) // event 1: 1 + 4 + 8 = 13 bytes at offset 4
	w.Access(r1, 0, 8, true)
	w.Flush()
	data := buf.Bytes()

	// Truncate inside event 2's operands. Event 2 starts at offset 17.
	tr := NewReader(bytes.NewReader(data[:19]))
	if _, err := tr.Next(); err != nil {
		t.Fatalf("event 1: %v", err)
	}
	_, err := tr.Next()
	if err == nil {
		t.Fatal("truncated event decoded")
	}
	for _, want := range []string{"event 2", "byte offset 17", "truncated"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	// Unknown opcode appended after the two good events.
	bad := append(append([]byte{}, data...), 0xEE)
	tr = NewReader(bytes.NewReader(bad))
	tr.Next()
	tr.Next()
	_, err = tr.Next()
	wantOff := fmt.Sprintf("byte offset %d", len(data))
	for _, want := range []string{"event 3", wantOff, "unknown opcode 238"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v missing %q", err, want)
		}
	}

	// Truncated magic reports how much of the header arrived.
	tr = NewReader(strings.NewReader("GS"))
	if _, err := tr.Next(); err == nil || !strings.Contains(err.Error(), "truncated magic (2 of 4") {
		t.Errorf("truncated magic error = %v", err)
	}
}

// TestEncodeReadAllRoundTrip: Encode∘ReadAll is the identity on event
// slices, and ReplayEvents agrees with streaming Replay — the shrinker
// depends on both.
func TestEncodeReadAllRoundTrip(t *testing.T) {
	data := record(t)
	events, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events decoded")
	}
	enc, err := Encode(events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("Encode(ReadAll(data)) != data (%d vs %d bytes)", len(enc), len(data))
	}

	envA := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	resA, err := Replay(bytes.NewReader(data), envA, true)
	if err != nil {
		t.Fatal(err)
	}
	envB := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	resB, err := ReplayEvents(events, envB, true)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Events != resB.Events || resA.Errors.Total() != resB.Errors.Total() {
		t.Fatalf("ReplayEvents diverged from Replay: %d/%d events, %d/%d errors",
			resA.Events, resB.Events, resA.Errors.Total(), resB.Errors.Total())
	}
	if !reflect.DeepEqual(envA.San().Stats(), envB.San().Stats()) {
		t.Fatalf("stats diverged:\n%+v\n%+v", envA.San().Stats(), envB.San().Stats())
	}
}

// TestReplayEventErrorsCarryIndex: semantic replay errors (unset
// register, unbalanced pop) name the failing event's ordinal.
func TestReplayEventErrorsCarryIndex(t *testing.T) {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	events := []Event{
		{Op: OpMalloc, Reg: 0, Size: 64},
		{Op: OpAccess, Reg: 99, Width: 8},
	}
	_, err := ReplayEvents(events, env, true)
	if err == nil || !strings.Contains(err.Error(), "event 2") {
		t.Errorf("unset-register error = %v", err)
	}
}

// TestDecodeAccessTypeByte: only an accessType byte of 1 decodes as a
// write; 0 and every other value decode as a read.
func TestDecodeAccessTypeByte(t *testing.T) {
	for _, c := range []struct {
		b     byte
		write bool
	}{{0, false}, {1, true}, {2, false}, {0xFF, false}} {
		acc, _ := Encode([]Event{{Op: OpAccess, Reg: 1, Off: -4, Width: 8}})
		rng, _ := Encode([]Event{{Op: OpRange, Reg: 1, Off: 4, Size: 9}})
		acc[len(acc)-1], rng[len(rng)-1] = c.b, c.b
		for _, data := range [][]byte{acc, rng} {
			ev, err := NewReader(bytes.NewReader(data)).Next()
			if err != nil || ev.Write != c.write {
				t.Errorf("op %d with accessType byte %d: write=%v, err %v; want write=%v",
					ev.Op, c.b, ev.Write, err, c.write)
			}
		}
	}
}
