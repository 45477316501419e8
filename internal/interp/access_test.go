package interp

import (
	"fmt"
	"math"
	"testing"

	"giantsan/internal/analysis"
	"giantsan/internal/instrument"
	"giantsan/internal/ir"
	"giantsan/internal/rt"
)

// runNative runs p uninstrumented on a fresh 1 MiB GiantSan runtime.
func runNative(t *testing.T, p *ir.Prog) (*Result, *rt.Env) {
	t.Helper()
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	ex, err := Prepare(p, instrument.Native, env)
	if err != nil {
		t.Fatal(err)
	}
	return ex.Run(), env
}

// TestUnalignedAccessesMatchByteWise loads and stores every width at every
// offset of an 8-byte word and compares the fused path with vmem's
// byte-wise Load and the byte layout a little-endian store must leave.
func TestUnalignedAccessesMatchByteWise(t *testing.T) {
	const val = int64(0x0807060504030201)
	for _, w := range []int{1, 2, 3, 4, 8} {
		for off := int64(0); off < 8; off++ {
			// Bytes 0..23 of a hold i*17+1; the load at off is stored
			// back at a+24, and the store of val at off lands in a+32.
			body := []ir.Stmt{&ir.Malloc{Dst: "a", Size: ir.Const(56)}}
			for i := int64(0); i < 24; i++ {
				body = append(body, &ir.Store{Base: "a", Off: i, Size: 1, Val: ir.Const(i*17 + 1)})
			}
			body = append(body,
				&ir.Load{Dst: "v", Base: "a", Off: off, Size: w},
				&ir.Store{Base: "a", Off: 24, Size: 8, Val: ir.Var("v")},
				&ir.Store{Base: "a", Off: 32 + off, Size: w, Val: ir.Const(val)},
			)
			res, env := runNative(t, &ir.Prog{Name: "unaligned", Body: body})
			if res.Stats.Skipped != 0 {
				t.Fatalf("w=%d off=%d: %d accesses skipped", w, off, res.Stats.Skipped)
			}
			sp := env.Space()
			a := envFirstAlloc(env)
			b, c := a+24, a+32
			if got, want := sp.Load(b, 8), sp.Load(a+uint64(off), uint64(w)); got != want {
				t.Errorf("load w=%d off=%d = %#x, byte-wise %#x", w, off, got, want)
			}
			for i := uint64(0); i < 24; i++ {
				want := byte(0)
				if d := int64(i) - off; d >= 0 && d < int64(w) {
					want = byte(val >> (8 * d))
				}
				if got := sp.Load8(c + i); got != want {
					t.Errorf("store w=%d off=%d: byte %d = %#x, want %#x", w, off, i, got, want)
				}
			}
		}
	}
}

// TestOutOfSpaceAccessesSkipped aims unchecked loads and stores below the
// space's base, across its limit and at addresses near 2^64: each is
// counted as Skipped and none panics. The last in-space word still works.
func TestOutOfSpaceAccessesSkipped(t *testing.T) {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	base, limit := env.Space().Base(), env.Space().Limit()
	wild := []struct {
		name string
		p    uint64
		off  int64
	}{
		{"below base", base - 8, 0},
		{"one byte below base", base, -1},
		{"straddling limit", limit - 4, 0},
		{"at limit", limit, 0},
		{"near 2^64", math.MaxUint64 - 3, 0},
		{"wrapping past 2^64", math.MaxUint64 - 7, 8},
	}
	for _, tc := range wild {
		p := &ir.Prog{Name: "wild", Body: []ir.Stmt{
			&ir.Decl{Name: "p", Init: ir.Const(int64(tc.p))},
			&ir.Load{Dst: "v", Base: "p", Off: tc.off, Size: 8},
			&ir.Store{Base: "p", Off: tc.off, Size: 8, Val: ir.Const(1)},
			&ir.Store{Base: "p", Off: tc.off, Size: 8, Val: ir.Bin{Op: ir.Add, L: ir.Var("v"), R: ir.Rand{N: ir.Const(9)}}},
		}}
		ex, err := Prepare(p, instrument.Native, env)
		if err != nil {
			t.Fatal(err)
		}
		res := ex.Run()
		if res.Stats.Accesses != 3 || res.Stats.Skipped != 3 {
			t.Errorf("%s: accesses %d, skipped %d, want 3 and 3", tc.name, res.Stats.Accesses, res.Stats.Skipped)
		}
	}
	p := &ir.Prog{Name: "last-word", Body: []ir.Stmt{
		&ir.Decl{Name: "p", Init: ir.Const(int64(limit - 8))},
		&ir.Store{Base: "p", Size: 8, Val: ir.Const(42)},
		&ir.Load{Dst: "v", Base: "p", Size: 8},
	}}
	ex, err := Prepare(p, instrument.Native, env)
	if err != nil {
		t.Fatal(err)
	}
	if res := ex.Run(); res.Stats.Skipped != 0 || env.Space().Load(limit-8, 8) != 42 {
		t.Errorf("last word: skipped %d, value %d", res.Stats.Skipped, env.Space().Load(limit-8, 8))
	}
}

// TestCheckFreeModeCounters pins the counters of the two modes that bind
// no check call: ModeNone counts only the access, ModeSkip also counts it
// as Eliminated.
func TestCheckFreeModeCounters(t *testing.T) {
	p := &ir.Prog{Name: "modes", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(800)},
		&ir.Loop{Var: "i", N: ir.Const(100), Bounded: true, Body: []ir.Stmt{
			&ir.Store{Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8, Val: ir.Var("i")},
			&ir.Load{Dst: "v", Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8},
		}},
	}}
	for _, tc := range []struct {
		prof instrument.Profile
		want ExecStats
	}{
		{instrument.Native, ExecStats{Accesses: 200, Mallocs: 1}},
		{instrument.GiantSanProfile, ExecStats{Accesses: 200, Eliminated: 200, PreChecks: 2, Mallocs: 1}},
	} {
		env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
		ex, err := Prepare(p, tc.prof, env)
		if err != nil {
			t.Fatal(err)
		}
		plan := instrument.Build(p, tc.prof, analysis.Analyze(p))
		want := map[bool]instrument.Mode{false: instrument.ModeNone, true: instrument.ModeSkip}[tc.prof.Check]
		for _, st := range p.Body[1].(*ir.Loop).Body {
			if plan.Mode[st] != want {
				t.Fatalf("%s: %T planned %v, want %v", tc.prof.Name, st, plan.Mode[st], want)
			}
		}
		if res := ex.Run(); res.Stats != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.prof.Name, res.Stats, tc.want)
		}
		if got := env.Space().Load(envFirstAlloc(env)+8*99, 8); got != 99 {
			t.Errorf("%s: a[99] = %d", tc.prof.Name, got)
		}
	}
}

// TestStoreValueForms stores a variable, a constant and two expressions
// and reads each back from memory.
func TestStoreValueForms(t *testing.T) {
	p := &ir.Prog{Name: "store-vals", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(32)},
		&ir.Decl{Name: "x", Init: ir.Const(40)},
		&ir.Store{Base: "a", Off: 0, Size: 8, Val: ir.Var("x")},
		&ir.Store{Base: "a", Off: 8, Size: 8, Val: ir.Const(-3)},
		&ir.Store{Base: "a", Off: 16, Size: 8, Val: ir.Bin{Op: ir.Add, L: ir.Var("x"), R: ir.Const(2)}},
		&ir.Store{Base: "a", Off: 24, Size: 8, Val: ir.Bin{Op: ir.Mul, L: ir.Bin{Op: ir.Sub, L: ir.Var("x"), R: ir.Const(1)}, R: ir.Const(3)}},
	}}
	_, env := runNative(t, p)
	a := envFirstAlloc(env)
	for i, want := range []int64{40, -3, 42, 117} {
		if got := int64(env.Space().Load(a+uint64(8*i), 8)); got != want {
			t.Errorf("a[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestBinFormsAgree evaluates every operator in its three compiled forms
// (variable and constant, two variables, and the generic closure form)
// against the IR's reference semantics, including division and modulo by
// zero and shift counts of 64 and more.
func TestBinFormsAgree(t *testing.T) {
	ref := func(op ir.BinOp, x, y int64) int64 {
		switch op {
		case ir.Add:
			return x + y
		case ir.Sub:
			return x - y
		case ir.Mul:
			return x * y
		case ir.Div:
			if y == 0 {
				return 0
			}
			return x / y
		case ir.Mod:
			if y == 0 {
				return 0
			}
			return x % y
		case ir.And:
			return x & y
		case ir.Xor:
			return x ^ y
		case ir.Shr:
			return x >> (uint64(y) & 63)
		}
		panic("unknown op")
	}
	eval := func(e ir.Expr, x, y int64) int64 {
		c := &compiler{slots: map[string]int{}, consts: map[int64]int{}}
		xs, ys := c.slot("x"), c.slot("y")
		fn, err := c.expr(e)
		if err != nil {
			t.Fatal(err)
		}
		vars := c.vars0()
		vars[xs], vars[ys] = x, y
		return fn(&state{vars: vars})
	}
	// Adding zero keeps an operand's value but not its leaf shape.
	generic := func(e ir.Expr) ir.Expr { return ir.Bin{Op: ir.Add, L: e, R: ir.Const(0)} }
	ops := []ir.BinOp{ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod, ir.And, ir.Xor, ir.Shr}
	xs := []int64{0, 7, -7, 1 << 40, math.MinInt64, math.MaxInt64}
	ys := []int64{0, 1, -1, 5, -5, 63, 64, 65, 127, math.MinInt64}
	for _, op := range ops {
		for _, x := range xs {
			for _, y := range ys {
				want := ref(op, x, y)
				forms := map[string]ir.Expr{
					"var-const": ir.Bin{Op: op, L: ir.Var("x"), R: ir.Const(y)},
					"var-var":   ir.Bin{Op: op, L: ir.Var("x"), R: ir.Var("y")},
					"generic":   ir.Bin{Op: op, L: generic(ir.Var("x")), R: generic(ir.Var("y"))},
				}
				for name, e := range forms {
					if got := eval(e, x, y); got != want {
						t.Errorf("op %d %s (%d, %d) = %d, want %d", op, name, x, y, got, want)
					}
				}
			}
		}
	}
}

// TestConstSlotsSurviveReruns checks that a constant operand slot is
// restored on every run and is not shared with a variable.
func TestConstSlotsSurviveReruns(t *testing.T) {
	p := &ir.Prog{Name: "consts", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(16)},
		&ir.Decl{Name: "k", Init: ir.Const(5)},
		&ir.Store{Base: "a", Size: 8, Val: ir.Bin{Op: ir.Add, L: ir.Var("k"), R: ir.Const(5)}},
		&ir.Assign{Name: "k", Val: ir.Const(99)},
		&ir.Store{Base: "a", Off: 8, Size: 8, Val: ir.Const(5)},
		&ir.Load{Dst: "x", Base: "a", Size: 8},
		&ir.Load{Dst: "y", Base: "a", Off: 8, Size: 8},
	}}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	ex, err := Prepare(p, instrument.Native, env)
	if err != nil {
		t.Fatal(err)
	}
	first := ex.Run()
	a := envFirstAlloc(env)
	if got := fmt.Sprint(env.Space().Load(a, 8), env.Space().Load(a+8, 8)); got != "10 5" {
		t.Errorf("a = %s, want 10 5", got)
	}
	if again := ex.Run(); again.Checksum != first.Checksum {
		t.Errorf("rerun checksum %#x, first run %#x", again.Checksum, first.Checksum)
	}
}
