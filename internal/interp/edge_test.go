package interp

import (
	"testing"

	"giantsan/internal/instrument"
	"giantsan/internal/ir"
	"giantsan/internal/report"
	"giantsan/internal/rt"
)

// TestExprOperators exercises every BinOp through memory (values stored
// then reloaded so the checksum captures them).
func TestExprOperators(t *testing.T) {
	mk := func(op ir.BinOp, l, r int64) int64 {
		p := &ir.Prog{Name: "ops", Body: []ir.Stmt{
			&ir.Malloc{Dst: "a", Size: ir.Const(8)},
			&ir.Store{Base: "a", Size: 8, Val: ir.Bin{Op: op, L: ir.Const(l), R: ir.Const(r)}},
			&ir.Load{Dst: "v", Base: "a", Size: 8},
		}}
		env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
		ex, err := Prepare(p, instrument.Native, env)
		if err != nil {
			t.Fatal(err)
		}
		ex.Run()
		// Re-read the stored value straight from simulated memory.
		return int64(env.Space().Load(envFirstAlloc(env), 8))
	}
	tests := []struct {
		op   ir.BinOp
		l, r int64
		want int64
	}{
		{ir.Add, 7, 5, 12},
		{ir.Sub, 7, 5, 2},
		{ir.Mul, 7, 5, 35},
		{ir.Div, 7, 5, 1},
		{ir.Div, 7, 0, 0}, // guarded division
		{ir.Mod, 7, 5, 2},
		{ir.Mod, 7, 0, 0}, // guarded modulo
		{ir.And, 6, 3, 2},
		{ir.Xor, 6, 3, 5},
		{ir.Shr, 32, 2, 8},
	}
	for _, tt := range tests {
		if got := mk(tt.op, tt.l, tt.r); got != tt.want {
			t.Errorf("op %d (%d,%d) = %d, want %d", tt.op, tt.l, tt.r, got, tt.want)
		}
	}
}

// envFirstAlloc returns the address of the first chunk the allocator
// hands out (deterministic: base + redzone).
func envFirstAlloc(env *rt.Env) uint64 {
	return env.Space().Base() + 16
}

func TestIfBranches(t *testing.T) {
	p := &ir.Prog{Name: "if", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(16)},
		&ir.If{Cond: ir.Const(1),
			Then: []ir.Stmt{&ir.Store{Base: "a", Off: 0, Size: 8, Val: ir.Const(111)}},
			Else: []ir.Stmt{&ir.Store{Base: "a", Off: 0, Size: 8, Val: ir.Const(222)}},
		},
		&ir.If{Cond: ir.Const(0),
			Then: []ir.Stmt{&ir.Store{Base: "a", Off: 8, Size: 8, Val: ir.Const(111)}},
			Else: []ir.Stmt{&ir.Store{Base: "a", Off: 8, Size: 8, Val: ir.Const(222)}},
		},
	}}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	ex, err := Prepare(p, instrument.GiantSanProfile, env)
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Run()
	if res.Errors.Total() != 0 {
		t.Fatal(res.Errors.Errors[0])
	}
	a := envFirstAlloc(env)
	if v := env.Space().Load(a, 8); v != 111 {
		t.Errorf("then-branch value = %d", v)
	}
	if v := env.Space().Load(a+8, 8); v != 222 {
		t.Errorf("else-branch value = %d", v)
	}
}

func TestReverseBoundedLoopPromoted(t *testing.T) {
	// A reverse counted loop still promotes: the preheader extent covers
	// the same byte range regardless of direction.
	p := &ir.Prog{Name: "rev-promote", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(800)},
		&ir.Loop{Var: "i", N: ir.Const(100), Bounded: true, Reverse: true, Body: []ir.Stmt{
			&ir.Store{Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8, Val: ir.Var("i")},
		}},
	}}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	ex, err := Prepare(p, instrument.GiantSanProfile, env)
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Run()
	if res.Errors.Total() != 0 {
		t.Fatal(res.Errors.Errors[0])
	}
	if res.Stats.Eliminated != 100 {
		t.Errorf("eliminated = %d, want 100 (promoted)", res.Stats.Eliminated)
	}
	// The values really landed in reverse order too.
	a := envFirstAlloc(env)
	if v := env.Space().Load(a+8*99, 8); v != 99 {
		t.Errorf("a[99] = %d", v)
	}
}

func TestZeroTripLoop(t *testing.T) {
	p := &ir.Prog{Name: "zero", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(64)},
		&ir.Loop{Var: "i", N: ir.Const(0), Bounded: true, Body: []ir.Stmt{
			&ir.Store{Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8, Val: ir.Const(1)},
		}},
	}}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	ex, err := Prepare(p, instrument.GiantSanProfile, env)
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Run()
	if res.Stats.Accesses != 0 || res.Stats.PreChecks != 0 || res.Errors.Total() != 0 {
		t.Errorf("zero-trip loop did work: %+v", res.Stats)
	}
}

func TestNestedCachesIndependent(t *testing.T) {
	// Two unbounded loops over different buffers nested: each gets its
	// own quasi-bound cache.
	p := &ir.Prog{Name: "nested", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(512)},
		&ir.Malloc{Dst: "b", Size: ir.Const(512)},
		&ir.Loop{Var: "i", N: ir.Const(64), Bounded: false, Body: []ir.Stmt{
			&ir.Load{Dst: "x", Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8},
			&ir.Loop{Var: "j", N: ir.Const(64), Bounded: false, Body: []ir.Stmt{
				&ir.Store{Base: "b", Idx: ir.Var("j"), Scale: 8, Size: 8, Val: ir.Var("x")},
			}},
		}},
	}}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	ex, err := Prepare(p, instrument.GiantSanProfile, env)
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Run()
	if res.Errors.Total() != 0 {
		t.Fatal(res.Errors.Errors[0])
	}
	if res.Stats.Cached != 64+64*64 {
		t.Errorf("cached = %d, want %d", res.Stats.Cached, 64+64*64)
	}
	// Far fewer loads than accesses: both caches effective even though
	// the inner cache is re-finished per outer iteration.
	if res.San.ShadowLoads > 600 {
		t.Errorf("loads = %d", res.San.ShadowLoads)
	}
}

func TestMemsetZeroAndNegativeLength(t *testing.T) {
	p := &ir.Prog{Name: "mz", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(64)},
		&ir.Memset{Base: "a", Val: ir.Const(1), Len: ir.Const(0)},
		&ir.Memset{Base: "a", Val: ir.Const(1), Len: ir.Const(-5)},
	}}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	ex, err := Prepare(p, instrument.GiantSanProfile, env)
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Run()
	if res.Errors.Total() != 0 {
		t.Errorf("degenerate memsets reported: %v", res.Errors.Errors)
	}
}

func TestOpaqueIsInert(t *testing.T) {
	p := &ir.Prog{Name: "opq", Body: []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.Const(64)},
		&ir.Store{Base: "a", Size: 8, Val: ir.Const(7)},
		&ir.Opaque{},
		&ir.Load{Dst: "v", Base: "a", Size: 8},
	}}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	ex, err := Prepare(p, instrument.GiantSanProfile, env)
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Run()
	if res.Errors.Total() != 0 || res.Checksum == 0 {
		t.Errorf("opaque broke execution: %+v", res.Stats)
	}
}

// TestHoistedChecksReportTheirAccess: a check hoisted to a loop preheader
// reports the type of the access it stands for, so a read-only loop that
// overflows reports READ under every leg, as the per-access checks of
// asan do, and a write loop reports WRITE.
func TestHoistedChecksReportTheirAccess(t *testing.T) {
	loop := func(access ir.Stmt) *ir.Prog {
		return &ir.Prog{Name: "hoisted", Body: []ir.Stmt{
			&ir.Malloc{Dst: "a", Size: ir.Const(80)},
			&ir.Loop{Var: "i", N: ir.Const(11), Bounded: true, Body: []ir.Stmt{access}},
		}}
	}
	progs := map[report.AccessType]*ir.Prog{
		report.Read:  loop(&ir.Load{Dst: "v", Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8}),
		report.Write: loop(&ir.Store{Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8, Val: ir.Var("i")}),
	}
	legs := []struct {
		prof instrument.Profile
		kind rt.Kind
	}{
		{instrument.GiantSanProfile, rt.GiantSan},
		{instrument.ElimOnly, rt.GiantSan},
		{instrument.ASanMinusProfile, rt.ASanMinus},
		{instrument.ASanProfile, rt.ASan},
	}
	for want, p := range progs {
		for _, leg := range legs {
			env := rt.New(rt.Config{Kind: leg.kind, HeapBytes: 1 << 20})
			ex, err := Prepare(p, leg.prof, env)
			if err != nil {
				t.Fatal(err)
			}
			res := ex.Run()
			if res.Errors.Total() == 0 {
				t.Errorf("%s: %v loop overflow not reported", leg.prof.Name, want)
			}
			for _, e := range res.Errors.Errors {
				if e.Access != want {
					t.Errorf("%s: %v loop reported %v", leg.prof.Name, want, e)
				}
			}
		}
	}
}

// TestCacheFinishReportsItsAccesses: the loop-exit check of a quasi-bound
// cache catches a buffer freed in the loop's last iteration and reports
// READ when only loads are bound to the cache, WRITE when a store is.
func TestCacheFinishReportsItsAccesses(t *testing.T) {
	loop := func(body ...ir.Stmt) *ir.Prog {
		body = append(body, &ir.If{Cond: ir.Bin{Op: ir.Xor, L: ir.Var("i"), R: ir.Const(9)},
			Else: []ir.Stmt{&ir.Free{Ptr: "a"}}})
		return &ir.Prog{Name: "finish", Body: []ir.Stmt{
			&ir.Malloc{Dst: "a", Size: ir.Const(80)},
			&ir.Loop{Var: "i", N: ir.Const(10), Body: body},
		}}
	}
	load := &ir.Load{Dst: "v", Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8}
	store := &ir.Store{Base: "a", Idx: ir.Var("i"), Scale: 8, Size: 8, Val: ir.Var("i")}
	for want, p := range map[report.AccessType]*ir.Prog{
		report.Read:  loop(load),
		report.Write: loop(load, store),
	} {
		for _, prof := range []instrument.Profile{instrument.GiantSanProfile, instrument.CacheOnly} {
			env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
			ex, err := Prepare(p, prof, env)
			if err != nil {
				t.Fatal(err)
			}
			res := ex.Run()
			if res.Stats.Cached == 0 || res.Errors.Total() != 1 {
				t.Fatalf("%s: %d cached accesses, %d errors, want a cached loop and the loop-exit report",
					prof.Name, res.Stats.Cached, res.Errors.Total())
			}
			if e := res.Errors.Errors[0]; e.Kind != report.UseAfterFree || e.Access != want {
				t.Errorf("%s: loop-exit check reported %v, want a %v use-after-free", prof.Name, e, want)
			}
		}
	}
}
