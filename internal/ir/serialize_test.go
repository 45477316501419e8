package ir_test

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"giantsan/internal/ir"
	"giantsan/internal/progen"
)

// roundTrip encodes, decodes and re-encodes p, demanding an exact tree
// and an exact canonical-bytes fixpoint.
func roundTrip(t *testing.T, p *ir.Prog) {
	t.Helper()
	enc := ir.Encode(p)
	got, err := ir.Decode(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v\n%s", p.Name, err, enc)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("%s: round trip changed the tree\nin:  %+v\nout: %+v\ntext:\n%s", p.Name, p, got, enc)
	}
	if re := ir.Encode(got); !bytes.Equal(re, enc) {
		t.Fatalf("%s: encoding is not canonical:\nfirst:\n%s\nsecond:\n%s", p.Name, enc, re)
	}
}

// TestSerializeRoundTripProgenWheel proves the codec over the full
// generator wheel: every clean shape and every planted bug class.
func TestSerializeRoundTripProgenWheel(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		roundTrip(t, progen.Clean(seed))
	}
	for _, kind := range progen.BugKinds() {
		for seed := int64(0); seed < 40; seed++ {
			p, _ := progen.BuggyKind(seed, kind)
			roundTrip(t, p)
		}
	}
}

// TestSerializeRoundTripAllForms covers every statement and expression
// form in one handcrafted program, including the corners progen rarely
// emits: nil index expressions, empty else branches, names needing quotes.
func TestSerializeRoundTripAllForms(t *testing.T) {
	p := &ir.Prog{
		Name: "all forms #1",
		Body: []ir.Stmt{
			&ir.Decl{Name: "x", Init: ir.Const(-7)},
			&ir.Assign{Name: "x", Val: ir.Bin{Op: ir.Shr, L: ir.Var("x"), R: ir.Const(1)}},
			&ir.Malloc{Dst: "buf0", Size: ir.Const(128)},
			&ir.Alloca{Dst: "s0", Size: ir.Rand{N: ir.Const(64)}},
			&ir.Frame{Body: []ir.Stmt{
				&ir.Load{Dst: "v0", Base: "buf0", Idx: nil, Scale: 0, Off: 8, Size: 4},
				&ir.Store{Base: "buf0", Idx: ir.Var("x"), Scale: 8, Off: -16, Size: 8, Val: ir.Const(1)},
			}},
			&ir.Memset{Base: "buf0", Off: nil, Val: ir.Const(0), Len: ir.Const(32)},
			&ir.Memcpy{Dst: "buf0", Src: "buf0", DOff: ir.Const(64), SOff: nil, Len: ir.Const(16)},
			&ir.Loop{Var: "i0", N: ir.Const(10), Bounded: true, Reverse: false, Body: []ir.Stmt{
				&ir.Loop{Var: "i1", N: ir.Var("x"), Bounded: false, Reverse: true, Body: []ir.Stmt{
					&ir.Load{Dst: "v1", Base: "buf0", Idx: ir.Var("i1"), Scale: 1, Off: 0, Size: 1},
				}},
			}},
			&ir.If{
				Cond: ir.Bin{Op: ir.And, L: ir.Var("x"), R: ir.Const(1)},
				Then: []ir.Stmt{&ir.Opaque{}},
				Else: nil,
			},
			&ir.Call{Body: []ir.Stmt{&ir.Free{Ptr: "buf0"}}},
		},
	}
	roundTrip(t, p)
}

// TestDecodeErrorsCarryOffsets pins the error convention: malformed input
// is reported with the byte offset of the offending token, like the trace
// codec's event-and-offset errors.
func TestDecodeErrorsCarryOffsets(t *testing.T) {
	cases := []struct {
		name  string
		input string
		// wantOff is the expected reported offset; wantMsg a substring.
		wantOff string
		wantMsg string
	}{
		{"empty", "", "offset 0", "expected '('"},
		{"not-prog", "(loop)", "offset 1", "expected 'prog'"},
		{"bad-stmt", `(prog p (bogus))`, "offset 9", "unknown statement"},
		{"bad-op", `(prog p (assign x (bin frob nil nil)))`, "offset 23", "unknown operator"},
		{"truncated", `(prog p (malloc b (const 8))`, "offset 28", "expected ')'"},
		{"trailing", "(prog p)x", "offset 8", "trailing input"},
		{"bad-int", `(prog p (load d b nil 1 z 8))`, "offset 24", "bad offset"},
	}
	re := regexp.MustCompile(`^ir: offset \d+: `)
	for _, tc := range cases {
		_, err := ir.Decode([]byte(tc.input))
		if err == nil {
			t.Errorf("%s: decode of %q succeeded", tc.name, tc.input)
			continue
		}
		if !re.MatchString(err.Error()) {
			t.Errorf("%s: error %q does not follow the offset convention", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.wantOff) || !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q, want offset %q and message %q", tc.name, err, tc.wantOff, tc.wantMsg)
		}
	}
}

// TestDecodeRefusesDeepNesting: nesting deep enough to exhaust the
// parser's stack is refused as malformed input, with the usual offset, at
// the first level past the cap. Without the cap, a million nested frames
// kill the process with a stack overflow that recover cannot catch.
func TestDecodeRefusesDeepNesting(t *testing.T) {
	const levels = 1000000
	src := "(prog x " + strings.Repeat("(frame ", levels) + strings.Repeat(")", levels) + ")"
	_, err := ir.Decode([]byte(src))
	if err == nil {
		t.Fatal("decode of a million nested frames succeeded")
	}
	if !strings.Contains(err.Error(), "offset 7008: nesting deeper than 1000 levels") {
		t.Fatalf("error %q, want the 1001st frame's offset and the cap", err)
	}

	expr := "(prog x (decl v " + strings.Repeat("(rand ", levels) + "nil" + strings.Repeat(")", levels) + "))"
	if _, err := ir.Decode([]byte(expr)); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
		t.Fatalf("decode of a million nested expressions: %v, want the nesting error", err)
	}
}

// TestSerializeRoundTripUnderNestingCap: the cap leaves every generated
// program decodable — every clean and buggy program of seeds 0-999 still
// round-trips exactly.
func TestSerializeRoundTripUnderNestingCap(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		roundTrip(t, progen.Clean(seed))
		if p, ok := progen.Buggy(seed); ok {
			roundTrip(t, p)
		}
	}
}
