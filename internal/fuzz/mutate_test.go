package fuzz

import (
	"testing"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/progen"
	"giantsan/internal/rt"
)

// TestMutantsAreValid is the mutator validity property: every mutant the
// engine can produce compiles under interp.Prepare. The campaign counts a
// rejected mutant as a wasted execution, so this suite keeps that path
// dead across the whole operator set (bias extremes force every operator
// to fire).
func TestMutantsAreValid(t *testing.T) {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 4 << 20})
	parents := make([]*ir.Prog, 0, 8)
	for s := int64(0); s < 8; s++ {
		parents = append(parents, progen.Clean(s))
	}
	biases := []Bias{DefaultBias()}
	for op := 0; op < NumMutators; op++ {
		// A bias that all but forces one operator.
		b := DefaultBias()
		b.Weights = [NumMutators]int{}
		b.Weights[op] = 1
		biases = append(biases, b)
	}
	checked := 0
	for pi, parent := range parents {
		donor := parents[(pi+1)%len(parents)]
		for bi, bias := range biases {
			for s := int64(0); s < 40; s++ {
				m := Mutate(parent, donor, s*31+int64(bi), bias)
				if _, err := interp.Prepare(m, instrument.GiantSanProfile, env); err != nil {
					t.Fatalf("parent %d bias %d seed %d: invalid mutant: %v\n%s",
						pi, bi, s, err, ir.Encode(m))
				}
				checked++
			}
		}
	}
	t.Logf("checked %d mutants", checked)
}

// TestMutateDeterministic: same (parent, donor, seed, bias) must yield a
// byte-identical mutant — the campaign's determinism rests on it.
func TestMutateDeterministic(t *testing.T) {
	parent, donor := progen.Clean(1), progen.Clean(2)
	for s := int64(0); s < 50; s++ {
		a := ir.Encode(Mutate(parent, donor, s, DefaultBias()))
		b := ir.Encode(Mutate(parent, donor, s, DefaultBias()))
		if string(a) != string(b) {
			t.Fatalf("seed %d: mutant not deterministic", s)
		}
	}
}

// TestMutateDoesNotAliasParent: mutation must never write through into
// the parent (corpus entries are immutable).
func TestMutateDoesNotAliasParent(t *testing.T) {
	parent, donor := progen.Clean(3), progen.Clean(4)
	before := string(ir.Encode(parent))
	dBefore := string(ir.Encode(donor))
	for s := int64(0); s < 100; s++ {
		Mutate(parent, donor, s, DefaultBias())
	}
	if string(ir.Encode(parent)) != before {
		t.Fatal("parent mutated in place")
	}
	if string(ir.Encode(donor)) != dBefore {
		t.Fatal("donor mutated in place")
	}
}
