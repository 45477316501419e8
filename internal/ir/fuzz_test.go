package ir_test

import (
	"bytes"
	"reflect"
	"testing"

	"giantsan/internal/ir"
	"giantsan/internal/progen"
)

// FuzzDecode: Decode never panics, and any program it accepts survives
// the canonical round trip — Decode(Encode(p)) yields p again, and
// re-encoding is a byte fixpoint.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/ir
func FuzzDecode(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("(prog p)"))
	f.Add([]byte(`(prog "a b" (decl x (bin add (var x) (rand (const -3)))) (frame (opaque)))`))
	f.Add([]byte(`(prog p (if nil (then (free b)) (else)) (loop i (const 4) bounded rev (call)))`))
	f.Add([]byte(`(prog p (load d b nil 1 8 4) (store b (var i) 8 -16 8 (const 1)))`))
	for seed := int64(0); seed < 4; seed++ {
		f.Add(ir.Encode(progen.Clean(seed)))
		if p, ok := progen.Buggy(seed); ok {
			f.Add(ir.Encode(p))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ir.Decode(data)
		if err != nil {
			return
		}
		enc := ir.Encode(p)
		got, err := ir.Decode(enc)
		if err != nil {
			t.Fatalf("decode of the re-encoding failed: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip changed the tree\nin:  %+v\nout: %+v\ntext:\n%s", p, got, enc)
		}
		if re := ir.Encode(got); !bytes.Equal(re, enc) {
			t.Fatalf("encoding is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", enc, re)
		}
	})
}
