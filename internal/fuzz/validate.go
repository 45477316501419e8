package fuzz

import (
	"fmt"

	"giantsan/internal/canary"
	"giantsan/internal/parallel"
	"giantsan/internal/progen"
)

// Blind differential validation (the original memfuzz mode, relocated so
// both the CLI and the test suite drive one implementation): randomly
// generated programs with by-construction ground truth, executed under
// every leg of the differential matrix (canary.Legs), cross-checking
// three properties —
//
//  1. no false positives on clean programs,
//  2. no missed planted bugs on buggy programs,
//  3. identical program semantics (checksums) under every profile.

// ValidateReport is the outcome of one validation sweep.
type ValidateReport struct {
	// Seeds is the per-mode seed count; Configs the matrix width.
	Seeds   int
	Configs int
	// Planted counts buggy seeds whose generator actually emitted the bug
	// site (progen.Buggy declines some seeds).
	Planted int
	// Failures holds one message per violated property, in seed order.
	Failures []string
}

// Vacuous reports whether the sweep never exercised a planted bug — a
// sweep that detects nothing because there was nothing to detect proves
// nothing about the sanitizer and must not pass quietly. (This was a
// real hole: the old memfuzz exited 0 when every buggy seed declined.)
func (r *ValidateReport) Vacuous() bool {
	return r.Planted == 0
}

// validateClean checks one clean seed under every leg, the native leg
// first (clean programs must checksum identically under every profile).
func validateClean(s int64, heapBytes uint64) []string {
	var fails []string
	p := progen.Clean(s)
	var base uint64
	for i, leg := range canary.Legs() {
		res, err := canary.Run(p, leg, heapBytes)
		if err != nil {
			fails = append(fails, fmt.Sprintf("seed %d (%s): %v", s, leg.Name(), err))
			continue
		}
		if res.Errors.Total() != 0 {
			fails = append(fails, fmt.Sprintf("seed %d: false positive under %s: %v",
				s, leg.Name(), res.Errors.Errors[0]))
		}
		if i == 0 {
			base = res.Checksum
		} else if res.Checksum != base {
			fails = append(fails, fmt.Sprintf("seed %d: semantics diverge under %s", s, leg.Name()))
		}
	}
	return fails
}

// validateBuggy checks one buggy seed; planted reports whether the
// generator actually emitted the bug site for this seed.
func validateBuggy(s int64, heapBytes uint64) (fails []string, planted bool) {
	p, ok := progen.Buggy(s)
	if !ok {
		return nil, false
	}
	for _, leg := range canary.Legs()[1:] { // skip native
		res, err := canary.Run(p, leg, heapBytes)
		if err != nil {
			fails = append(fails, fmt.Sprintf("seed %d (%s): %v", s, leg.Name(), err))
			continue
		}
		if res.Errors.Total() == 0 {
			fails = append(fails, fmt.Sprintf("seed %d: %s missed the planted bug", s, leg.Name()))
		}
	}
	return fails, true
}

// Validate sweeps n clean and n buggy seeds starting at seed across the
// worker pool. Seeds are shared-nothing work items (fresh runtimes per
// run) folded in seed order, so the report is identical at any worker
// count.
func Validate(n int, seed int64, workers int) (*ValidateReport, error) {
	const heapBytes = 16 << 20
	pool := parallel.Options{Workers: workers}
	type verdict struct {
		fails   []string
		planted bool
	}
	clean, err := parallel.Map(n, pool, func(i int) (verdict, error) {
		return verdict{fails: validateClean(seed+int64(i), heapBytes)}, nil
	})
	if err != nil {
		return nil, err
	}
	buggy, err := parallel.Map(n, pool, func(i int) (verdict, error) {
		fails, planted := validateBuggy(seed+int64(i), heapBytes)
		return verdict{fails: fails, planted: planted}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &ValidateReport{Seeds: n, Configs: len(canary.Legs())}
	for _, v := range clean {
		rep.Failures = append(rep.Failures, v.fails...)
	}
	for _, v := range buggy {
		if v.planted {
			rep.Planted++
		}
		rep.Failures = append(rep.Failures, v.fails...)
	}
	return rep, nil
}
