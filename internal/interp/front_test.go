package interp

import (
	"fmt"
	"strings"
	"testing"

	"giantsan/internal/analysis"
	"giantsan/internal/instrument"
	"giantsan/internal/ir"
	"giantsan/internal/lfp"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
)

// runPath compiles p under the GiantSan profile — with the probed access
// forced into mode when mode is not ModeNone — and runs it on a fresh
// GiantSan runtime on its fast path (reference false, where the inline
// fronts run) or its reference path (where none is bound). It returns the
// run's canonical text: ExecStats, the san.Stats delta, the checksum and
// every report.
func runPath(t *testing.T, p *ir.Prog, probe ir.Stmt, mode instrument.Mode, reference bool) (string, *Result) {
	t.Helper()
	facts := analysis.Analyze(p)
	plan := instrument.Build(p, instrument.GiantSanProfile, facts)
	if mode != instrument.ModeNone {
		plan.Mode[probe] = mode
	}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20, Reference: reference})
	ex, err := Compile(p, plan, facts, env)
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Run()
	var b strings.Builder
	fmt.Fprintf(&b, "stats=%+v san=%+v checksum=%#x\n", res.Stats, res.San, res.Checksum)
	for _, e := range res.Errors.Errors {
		fmt.Fprintln(&b, e.Error())
	}
	return b.String(), res
}

// TestFrontRefusalsMatchReference aims one access at each branch where
// GiantSan's inline front must refuse and leave the access to the generic
// check call, and requires the fast path's run to equal the reference
// path's in every counter, the checksum and every report. A front that
// passed where it must refuse would count a fast check (or a cache hit)
// the reference path does not. Each case also checks that its access was
// planned as intended and that its run shows the branch it aims at.
func TestFrontRefusalsMatchReference(t *testing.T) {
	obj := func(size int64) ir.Stmt { return &ir.Malloc{Dst: "p", Size: ir.Const(size)} }
	at := func(base string, off int64) *ir.Load { return &ir.Load{Dst: "v", Base: base, Off: off, Size: 8} }

	unaligned := &ir.Load{Dst: "v", Base: "q", Size: 4}
	below := at("q", -8)
	straddle := at("q", -4)
	low, high := at("z", 0), at("z", 0)
	wrapping := &ir.Load{Dst: "v", Base: "p", Idx: ir.Var("j"), Scale: 1, Size: 8}
	partial := &ir.Load{Dst: "v", Base: "p", Off: 8, Size: 4}
	reanchored := &ir.Load{Dst: "v", Base: "b", Idx: ir.Var("i"), Scale: 8, Size: 8}

	for _, tc := range []struct {
		name  string
		body  []ir.Stmt
		probe ir.Stmt
		// planned is the mode the planner must pick for probe; force, when
		// not ModeNone, is the mode the case overrides it with.
		planned, force instrument.Mode
		// shows checks the run exercised the refusal branch.
		shows func(r *Result) error
	}{
		{
			name:    "unaligned anchor",
			body:    []ir.Stmt{obj(64), &ir.Decl{Name: "q", Init: ir.Bin{Op: ir.Add, L: ir.Var("p"), R: ir.Const(1)}}, unaligned},
			probe:   unaligned,
			planned: instrument.ModeDirect,
			shows:   wantSan(func(r *Result) bool { return r.San.FastChecks == 0 && r.San.ShadowLoads == 1 }, "a head fix-up alone"),
		},
		{
			name:    "p below the anchor",
			body:    []ir.Stmt{obj(64), &ir.Decl{Name: "q", Init: ir.Bin{Op: ir.Add, L: ir.Var("p"), R: ir.Const(16)}}, below},
			probe:   below,
			planned: instrument.ModeDirect,
			shows:   wantSan(func(r *Result) bool { return r.San.RangeChecks == 1 && r.Errors.Total() == 0 }, "one underflow-side check"),
		},
		{
			name:    "access straddling the anchor",
			body:    []ir.Stmt{obj(64), &ir.Decl{Name: "q", Init: ir.Bin{Op: ir.Add, L: ir.Var("p"), R: ir.Const(16)}}, straddle},
			probe:   straddle,
			planned: instrument.ModeDirect,
			shows:   wantSan(func(r *Result) bool { return r.San.RangeChecks == 2 && r.Errors.Total() == 0 }, "two range checks"),
		},
		{
			name:    "anchor below the space",
			body:    []ir.Stmt{&ir.Decl{Name: "z", Init: ir.Const(16)}, low},
			probe:   low,
			planned: instrument.ModeDirect,
			shows:   wantError(report.NullDereference),
		},
		{
			name:    "anchor above the space",
			body:    []ir.Stmt{&ir.Decl{Name: "z", Init: ir.Const(1 << 40)}, high},
			probe:   high,
			planned: instrument.ModeDirect,
			shows:   wantError(report.WildAccess),
		},
		{
			name: "end wrapping past 2^64",
			body: []ir.Stmt{obj(64),
				// j = -p - 4, so p + j is 0xfffffffffffffffc.
				&ir.Decl{Name: "j", Init: ir.Bin{Op: ir.Sub, L: ir.Bin{Op: ir.Sub, L: ir.Const(0), R: ir.Var("p")}, R: ir.Const(4)}},
				wrapping},
			probe:   wrapping,
			planned: instrument.ModeDirect,
			shows:   wantError(report.WildAccess),
		},
		{
			name:    "end in a k-partial segment",
			body:    []ir.Stmt{obj(13), partial},
			probe:   partial,
			planned: instrument.ModeDirect,
			shows:   wantSan(func(r *Result) bool { return r.San.SlowChecks == 1 && r.San.NearMisses == 1 }, "a slow check and a near miss"),
		},
		{
			// The base is reassigned mid-loop, so the planner keeps the
			// access direct; forcing it onto a cache makes the anchor
			// change under a live bound, which must miss and reset.
			name: "cache re-anchored mid-loop",
			body: []ir.Stmt{obj(64), &ir.Malloc{Dst: "q", Size: ir.Const(64)}, &ir.Decl{Name: "b", Init: ir.Var("p")},
				&ir.Loop{Var: "i", N: ir.Const(8), Body: []ir.Stmt{
					reanchored,
					&ir.If{Cond: ir.Bin{Op: ir.Xor, L: ir.Var("i"), R: ir.Const(3)}, Else: []ir.Stmt{&ir.Assign{Name: "b", Val: ir.Var("q")}}},
				}}},
			probe:   reanchored,
			planned: instrument.ModeDirect,
			force:   instrument.ModeCached,
			shows:   wantSan(func(r *Result) bool { return r.San.CacheRefills == 2 && r.San.CacheHits == 6 }, "two refills and six hits"),
		},
	} {
		p := &ir.Prog{Name: tc.name, Body: tc.body}
		plan := instrument.Build(p, instrument.GiantSanProfile, analysis.Analyze(p))
		if got := plan.Mode[tc.probe]; got != tc.planned {
			t.Errorf("%s: access planned %v, want %v", tc.name, got, tc.planned)
			continue
		}
		fast, res := runPath(t, p, tc.probe, tc.force, false)
		ref, _ := runPath(t, p, tc.probe, tc.force, true)
		if fast != ref {
			t.Errorf("%s: fast path\n%s reference path\n%s", tc.name, fast, ref)
		}
		if err := tc.shows(res); err != nil {
			t.Errorf("%s: %v\n%s", tc.name, err, fast)
		}
	}
}

// wantSan checks a run against a predicate on its counters.
func wantSan(ok func(r *Result) bool, what string) func(r *Result) error {
	return func(r *Result) error {
		if !ok(r) {
			return fmt.Errorf("run does not show %s", what)
		}
		return nil
	}
}

// wantError checks that a run reported exactly one error, of kind k.
func wantError(k report.Kind) func(r *Result) error {
	return func(r *Result) error {
		if r.Errors.Total() != 1 || r.Errors.Errors[0].Kind != k {
			return fmt.Errorf("want one %v report", k)
		}
		return nil
	}
}

// wrappedSan stands for the checkers that decorate a sanitizer by
// embedding it, as trace.Recorder's and the canary plants' do.
type wrappedSan struct{ san.Sanitizer }

// wrappedRuntime hands out a wrappedSan around its runtime's checker.
type wrappedRuntime struct{ rt.Runtime }

func (w wrappedRuntime) San() san.Sanitizer { return wrappedSan{w.Runtime.San()} }

// TestFrontsBindOnlyOnFastPaths pins which checkers an inline front may
// stand in for: GiantSan and ASan on their fast paths. A reference-path
// runtime, LFP and a wrapped checker get none. On the reference path the
// outcome would not show it — the fronts are exact — but the reference
// path is the implementation the differential suites compare against, so
// none of it may be skipped.
func TestFrontsBindOnlyOnFastPaths(t *testing.T) {
	for _, tc := range []struct {
		name        string
		run         rt.Runtime
		giant, asan bool
	}{
		{"giantsan", rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 16}), true, false},
		{"giantsan reference", rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 16, Reference: true}), false, false},
		{"asan", rt.New(rt.Config{Kind: rt.ASan, HeapBytes: 1 << 16}), false, true},
		{"asan-- reference", rt.New(rt.Config{Kind: rt.ASanMinus, HeapBytes: 1 << 16, Reference: true}), false, false},
		{"lfp", lfp.New(lfp.Config{HeapBytes: 1 << 20}), false, false},
		{"wrapped giantsan", wrappedRuntime{rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 16})}, false, false},
		{"wrapped asan", wrappedRuntime{rt.New(rt.Config{Kind: rt.ASan, HeapBytes: 1 << 16})}, false, false},
	} {
		giant, asanChecker := (&compiler{run: tc.run}).checkers()
		if (giant != nil) != tc.giant || (asanChecker != nil) != tc.asan {
			t.Errorf("%s: GiantSan front %v, ASan front %v; want %v, %v", tc.name, giant != nil, asanChecker != nil, tc.giant, tc.asan)
		}
	}
}
