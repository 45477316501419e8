package rt_test

import (
	"fmt"
	"testing"

	"giantsan/internal/lfp"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// TestWrappingAccessesReported aims accesses whose end wraps past 2^64 at
// every checker kind, on its fast and its reference path, through every
// entry point an access reaches: CheckAccess, CheckAnchored with the
// anchor at the access and in the space, and a quasi-bound cache. Each
// one is reported — as a wild access by the shadow checkers, whose
// CheckRange would take the wrapped range for an empty one — and the two
// paths of each kind count the same Stats.
func TestWrappingAccessesReported(t *testing.T) {
	const p = vmem.Addr(0xfffffffffffffffc) // an 8-byte access ends at 2^64+4
	type runtime struct {
		name    string
		run     rt.Runtime
		shadow  bool
		pathsOf string // the kind whose two paths must agree, or ""
	}
	var runs []runtime
	for _, kind := range []rt.Kind{rt.GiantSan, rt.ASan, rt.ASanMinus} {
		for _, ref := range []bool{false, true} {
			runs = append(runs, runtime{
				name:    fmt.Sprintf("%v/reference=%v", kind, ref),
				run:     rt.New(rt.Config{Kind: kind, HeapBytes: 1 << 16, Reference: ref}),
				shadow:  true,
				pathsOf: kind.String(),
			})
		}
	}
	runs = append(runs, runtime{name: "lfp", run: lfp.New(lfp.Config{HeapBytes: 1 << 20})})

	stats := map[string][]san.Stats{}
	for _, r := range runs {
		obj, err := r.run.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		s := r.run.San()
		before := *s.Stats()
		for _, c := range []struct {
			name string
			err  *report.Error
		}{
			{"CheckAccess", s.CheckAccess(p, 8, report.Read)},
			{"CheckAccess wide", s.CheckAccess(p-8, 16, report.Read)},
			{"CheckAnchored at the access", s.CheckAnchored(p, p, 8, report.Write)},
			{"CheckAnchored in the space", s.CheckAnchored(obj, p, 8, report.Read)},
			{"CheckAnchored wide", s.CheckAnchored(obj, p-8, 16, report.Read)},
			{"CheckCached", s.NewCache().CheckCached(obj, int64(p-obj), 8, report.Read)},
		} {
			switch {
			case c.err == nil:
				t.Errorf("%s: %s passed an access wrapping past 2^64", r.name, c.name)
			case r.shadow && c.err.Kind != report.WildAccess:
				t.Errorf("%s: %s reported %v, want %v", r.name, c.name, c.err.Kind, report.WildAccess)
			}
		}
		after := *s.Stats()
		if got := after.Errors - before.Errors; got != 6 {
			t.Errorf("%s: Errors rose by %d, want 6", r.name, got)
		}
		if r.pathsOf != "" {
			stats[r.pathsOf] = append(stats[r.pathsOf], after.Sub(&before))
		}
	}
	for kind, both := range stats {
		if both[0] != both[1] {
			t.Errorf("%s: fast path counted %+v, reference path %+v", kind, both[0], both[1])
		}
	}
}
