// Package hotpath microbenchmarks the checker hot paths in isolation: no
// interpreter, no workload kernels, just a tight loop of checks against a
// live heap object. It reports ns/check (wall clock) and shadow-loads/check
// (the paper's hardware-independent cost model) per sanitizer × access
// shape, and the speedup of each specialized path over its reference
// (pre-optimization) implementation — the before/after evidence for the
// fast-path work, since the reference path IS the pre-optimization code.
//
// The results land in BENCH_hotpath.json via `giantbench -exp hotpath`;
// `go test -bench=Hotpath
// ./internal/bench/hotpath` runs the same shapes under the standard Go
// benchmark harness.
package hotpath

import (
	"fmt"
	"time"

	"giantsan/internal/lfp"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/texttable"
	"giantsan/internal/vmem"
)

// ObjBytes is the size of the heap object every shape runs against. Large
// enough for the 64 KiB range shape, small enough to stay cache-resident so
// the benchmark measures check code, not memory bandwidth.
const ObjBytes = 64 << 10

// Shape is one access pattern. Run performs one full pass of checks over
// the object [base, base+ObjBytes) and must report no errors (the object is
// live for the whole benchmark).
type Shape struct {
	Name string
	Run  func(s san.Sanitizer, base vmem.Addr) *report.Error
}

// Shapes returns the benchmark access shapes: instruction-level checks at
// the widths and alignments compilers emit, operation-level region checks
// at sizes where the O(1)-vs-linear gap shows, and the quasi-bound loop
// pattern of §4.3.
func Shapes() []Shape {
	return []Shape{
		{"access-1-aligned", func(s san.Sanitizer, base vmem.Addr) *report.Error {
			for off := vmem.Addr(0); off < ObjBytes; off += 8 {
				if err := s.CheckAccess(base+off, 1, report.Read); err != nil {
					return err
				}
			}
			return nil
		}},
		{"access-8-aligned", func(s san.Sanitizer, base vmem.Addr) *report.Error {
			for off := vmem.Addr(0); off < ObjBytes; off += 8 {
				if err := s.CheckAccess(base+off, 8, report.Read); err != nil {
					return err
				}
			}
			return nil
		}},
		{"access-8-unaligned", func(s san.Sanitizer, base vmem.Addr) *report.Error {
			// Every access straddles a segment boundary: the slow shape for
			// per-segment encodings.
			for off := vmem.Addr(1); off+8 <= ObjBytes; off += 8 {
				if err := s.CheckAccess(base+off, 8, report.Read); err != nil {
					return err
				}
			}
			return nil
		}},
		{"range-64", func(s san.Sanitizer, base vmem.Addr) *report.Error {
			for off := vmem.Addr(0); off+64 <= ObjBytes; off += 64 {
				if err := s.CheckRange(base+off, base+off+64, report.Write); err != nil {
					return err
				}
			}
			return nil
		}},
		{"range-4k", func(s san.Sanitizer, base vmem.Addr) *report.Error {
			for off := vmem.Addr(0); off+4096 <= ObjBytes; off += 4096 {
				if err := s.CheckRange(base+off, base+off+4096, report.Write); err != nil {
					return err
				}
			}
			return nil
		}},
		{"range-64k", func(s san.Sanitizer, base vmem.Addr) *report.Error {
			return s.CheckRange(base, base+ObjBytes, report.Write)
		}},
		{"anchored-stride", func(s san.Sanitizer, base vmem.Addr) *report.Error {
			c := s.NewCache()
			for off := int64(0); off+8 <= ObjBytes; off += 8 {
				if err := c.CheckCached(base, off, 8, report.Read); err != nil {
					return err
				}
			}
			return c.Finish(base, report.Read)
		}},
	}
}

// Config is one benchmarked sanitizer configuration.
type Config struct {
	Label string
	Build func() (rt.Runtime, error)
}

// Configs returns the benchmark matrix: each shadow sanitizer in both its
// specialized and reference form (the -ref rows are the pre-PR check
// implementations), plus LFP, which has a single implementation.
func Configs() []Config {
	shadowCfg := func(label string, kind rt.Kind, reference bool) Config {
		return Config{Label: label, Build: func() (rt.Runtime, error) {
			return rt.New(rt.Config{Kind: kind, HeapBytes: 4 << 20, Reference: reference}), nil
		}}
	}
	return []Config{
		shadowCfg("giantsan", rt.GiantSan, false),
		shadowCfg("giantsan-ref", rt.GiantSan, true),
		shadowCfg("asan", rt.ASan, false),
		shadowCfg("asan-ref", rt.ASan, true),
		shadowCfg("asan--", rt.ASanMinus, false),
		{Label: "lfp", Build: func() (rt.Runtime, error) {
			return lfp.New(lfp.Config{HeapBytes: 8 << 20, MaxClass: 1 << 20}), nil
		}},
	}
}

// Row is one (sanitizer, shape) measurement.
type Row struct {
	Sanitizer string `json:"sanitizer"`
	Shape     string `json:"shape"`
	// Checks is the number of runtime checks one pass performs.
	Checks uint64 `json:"checks"`
	// NsPerCheck is median-free mean wall time per check across all passes.
	NsPerCheck float64 `json:"nsPerCheck"`
	// ShadowLoadsPerCheck is the metadata loads per check — the paper's
	// machine-independent cost, identical across fast and reference paths.
	ShadowLoadsPerCheck float64 `json:"shadowLoadsPerCheck"`
}

// Report is the BENCH_hotpath.json payload.
type Report struct {
	// ObjBytes and Passes record the benchmark geometry.
	ObjBytes uint64 `json:"objBytes"`
	Passes   int    `json:"passes"`
	Rows     []Row  `json:"rows"`
	// Speedup maps "<sanitizer>/<shape>" to reference-ns ÷ specialized-ns
	// for the sanitizers that carry both paths.
	Speedup map[string]float64 `json:"speedup"`
}

// MeasureOne runs at least `passes` passes of one shape against one
// runtime and returns the filled row. Batches of `passes` repeat until a
// minimum wall time has elapsed, so even shapes with very few checks per
// pass get a stable timing window.
func MeasureOne(label string, env rt.Runtime, sh Shape, passes int) (Row, error) {
	base, err := env.Malloc(ObjBytes)
	if err != nil {
		return Row{}, fmt.Errorf("hotpath: %s malloc: %v", label, err)
	}
	s := env.San()
	// Untimed warm pass: faults the shapes' error-free contract early and
	// warms caches; also yields the per-pass check count.
	before := s.Stats().Clone()
	if err := sh.Run(s, base); err != nil {
		return Row{}, fmt.Errorf("hotpath: %s/%s reported %v on a live object", label, sh.Name, err)
	}
	delta := s.Stats().Sub(before)
	// Repeat `passes`-sized batches until the measurement has run for at
	// least minMeasure: cheap shapes (16 range-4k checks per pass) would
	// otherwise finish in tens of microseconds, where timer resolution and
	// scheduling noise can invert fast-vs-reference ratios.
	const minMeasure = 5 * time.Millisecond
	var elapsed time.Duration
	timed := 0
	for elapsed < minMeasure {
		start := time.Now()
		for i := 0; i < passes; i++ {
			if err := sh.Run(s, base); err != nil {
				return Row{}, fmt.Errorf("hotpath: %s/%s reported %v on a live object", label, sh.Name, err)
			}
		}
		elapsed += time.Since(start)
		timed += passes
	}
	checks := delta.Checks
	row := Row{Sanitizer: label, Shape: sh.Name, Checks: checks}
	if checks > 0 {
		row.NsPerCheck = float64(elapsed.Nanoseconds()) / float64(timed) / float64(checks)
		row.ShadowLoadsPerCheck = float64(delta.ShadowLoads) / float64(checks)
	}
	return row, nil
}

// Run executes the full matrix. passes ≤ 0 selects a default sized for
// stable sub-ns resolution at ObjBytes.
func Run(passes int) (*Report, error) {
	if passes <= 0 {
		passes = 200
	}
	rep := &Report{ObjBytes: ObjBytes, Passes: passes, Speedup: map[string]float64{}}
	for _, cfg := range Configs() {
		for _, sh := range Shapes() {
			env, err := cfg.Build()
			if err != nil {
				return nil, err
			}
			row, err := MeasureOne(cfg.Label, env, sh, passes)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	byKey := map[string]Row{}
	for _, r := range rep.Rows {
		byKey[r.Sanitizer+"/"+r.Shape] = r
	}
	for _, base := range []string{"giantsan", "asan"} {
		for _, sh := range Shapes() {
			fast, okF := byKey[base+"/"+sh.Name]
			ref, okR := byKey[base+"-ref/"+sh.Name]
			if okF && okR && fast.NsPerCheck > 0 {
				rep.Speedup[base+"/"+sh.Name] = ref.NsPerCheck / fast.NsPerCheck
			}
		}
	}
	return rep, nil
}

// Render formats a report as a text table (one row per sanitizer × shape)
// followed by the speedup lines.
func Render(rep *Report) string {
	tb := texttable.New("Sanitizer", "Shape", "Checks/pass", "ns/check", "ShadowLoads/check")
	for _, r := range rep.Rows {
		tb.Add(r.Sanitizer, r.Shape, fmt.Sprintf("%d", r.Checks),
			fmt.Sprintf("%.1f", r.NsPerCheck), fmt.Sprintf("%.2f", r.ShadowLoadsPerCheck))
	}
	out := tb.String()
	for _, base := range []string{"giantsan", "asan"} {
		for _, sh := range Shapes() {
			if sp, ok := rep.Speedup[base+"/"+sh.Name]; ok {
				out += fmt.Sprintf("%s %s: %.2fx vs reference path\n", base, sh.Name, sp)
			}
		}
	}
	return out
}
