// Benchmarks regenerating the paper's evaluation. One benchmark family
// per table/figure (see DESIGN.md §4 for the index):
//
//	BenchmarkTable2             — per-program wall time per sanitizer
//	BenchmarkAblation           — CacheOnly / EliminationOnly columns
//	BenchmarkFigure10Classify   — dynamic check classification
//	BenchmarkTable3Juliet       — Juliet sweep end-to-end
//	BenchmarkTable4Flaws        — CVE scenario sweep
//	BenchmarkTable5Magma        — Magma redzone sweep (php row)
//	BenchmarkFigure11           — traversal patterns vs buffer size
//	BenchmarkRegionCheck        — §4.2: O(1) CI vs ASan's linear guardian
//	BenchmarkQuasiBound         — §4.3: cached loop protection
//	BenchmarkPoison             — §4.1: linear-time folded poisoning
//	BenchmarkMallocFree         — allocator + quarantine hot path
//
// Run with: go test -bench=. -benchmem
package giantsan

import (
	"fmt"
	"testing"

	"giantsan/internal/asan"
	"giantsan/internal/bench"
	"giantsan/internal/core"
	"giantsan/internal/flaws"
	"giantsan/internal/juliet"
	"giantsan/internal/libc"
	"giantsan/internal/magma"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/traversal"
	"giantsan/internal/vmem"
	"giantsan/internal/workload"
)

// table2Programs is the subset benched per configuration by default; the
// full 24-program table is produced by cmd/giantbench (running all 24
// under 7 configurations inside `go test -bench` would take minutes).
var table2Programs = []string{
	"500.perlbench_r", "505.mcf_r", "519.lbm_r", "520.omnetpp_r", "557.xz_r",
}

func BenchmarkTable2(b *testing.B) {
	for _, id := range table2Programs {
		w := workload.ByID(id)
		for _, cfg := range bench.Configs() {
			if cfg.Ablation {
				continue
			}
			if cfg.IsLFP {
				if _, bad := map[string]bool{"500.perlbench_r": true}[id]; bad {
					continue // CE in the paper
				}
			}
			b.Run(id+"/"+cfg.Label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := bench.RunOnce(w, cfg, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	w := workload.ByID("505.mcf_r")
	for _, cfg := range bench.Configs() {
		if !cfg.Ablation && cfg.Label != "giantsan" {
			continue
		}
		b.Run(cfg.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.RunOnce(w, cfg, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure10Classify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10(1, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m := bench.Fig10Means(rows)
		b.ReportMetric(100*(m.Eliminated+m.Cached), "%optimized")
	}
}

func BenchmarkTable3Juliet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		juliet.Run(bench.DetectionTools)
	}
}

func BenchmarkTable4Flaws(b *testing.B) {
	for i := 0; i < b.N; i++ {
		flaws.Run(bench.DetectionTools)
	}
}

func BenchmarkTable5Magma(b *testing.B) {
	var php magma.Project
	for _, p := range magma.Projects() {
		if p.Name == "php" {
			php = p
		}
	}
	for i := 0; i < b.N; i++ {
		res := magma.Run(php)
		b.ReportMetric(float64(res.Counts["giantsan(rz=16)"]), "detected")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for _, pattern := range traversal.Patterns() {
		for _, mode := range traversal.Modes() {
			for _, kb := range []uint64{1, 4, 16} {
				name := fmt.Sprintf("%s/%s/%dKB", pattern, mode, kb)
				b.Run(name, func(b *testing.B) {
					h, err := traversal.New(mode, pattern, kb<<10)
					if err != nil {
						b.Fatal(err)
					}
					h.Traverse() // converge the quasi-bound
					b.ResetTimer()
					var sink uint64
					for i := 0; i < b.N; i++ {
						sink += h.Traverse()
					}
					_ = sink
				})
			}
		}
	}
}

// BenchmarkRegionCheck contrasts §4.2's O(1) CI with ASan's linear
// guardian across region sizes: GiantSan's ns/op stays flat, ASan's grows
// linearly.
func BenchmarkRegionCheck(b *testing.B) {
	sp := vmem.NewSpace(1 << 21)
	g := core.New(sp)
	a := asan.New(sp)
	base := sp.Base() + 4096
	size := uint64(1 << 20)
	g.MarkAllocated(base, size)
	a.MarkAllocated(base, size)
	for _, n := range []uint64{64, 1 << 10, 16 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("giantsan/%dB", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := g.CheckRange(base, base+n, report.Read); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("asan/%dB", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := a.CheckRange(base, base+n, report.Read); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuasiBound measures §4.3's cached loop protection against
// per-access checking on a forward scan.
func BenchmarkQuasiBound(b *testing.B) {
	sp := vmem.NewSpace(1 << 21)
	g := core.New(sp)
	base := sp.Base() + 4096
	size := uint64(64 << 10)
	g.MarkAllocated(base, size)

	b.Run("cached", func(b *testing.B) {
		c := g.NewCache()
		for i := 0; i < b.N; i++ {
			for off := int64(0); off < int64(size); off += 8 {
				if err := c.CheckCached(base, off, 8, report.Read); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for off := uint64(0); off < size; off += 8 {
				if err := g.CheckAccess(base+off, 8, report.Read); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPoison measures §4.1's claim that building folded segments
// costs the same linear pass as ASan's zero-fill.
func BenchmarkPoison(b *testing.B) {
	sp := vmem.NewSpace(1 << 21)
	g := core.New(sp)
	a := asan.New(sp)
	base := sp.Base() + 4096
	for _, n := range []uint64{64, 4 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("giantsan/%dB", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.MarkAllocated(base, n)
			}
		})
		b.Run(fmt.Sprintf("asan/%dB", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.MarkAllocated(base, n)
			}
		})
	}
}

// BenchmarkMallocFree exercises the allocator with quarantine pressure.
func BenchmarkMallocFree(b *testing.B) {
	for _, kind := range []rt.Kind{rt.GiantSan, rt.ASan} {
		b.Run(kind.String(), func(b *testing.B) {
			env := rt.New(rt.Config{Kind: kind, HeapBytes: 64 << 20, QuarantineBytes: 1 << 16})
			for i := 0; i < b.N; i++ {
				p, err := env.Malloc(uint64(32 + i%256))
				if err != nil {
					b.Fatal(err)
				}
				if err := env.Free(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGuardianStrcpy measures the §4.5 interceptor rewrite: the
// strcpy guardian across string lengths — flat for GiantSan, linear for
// ASan.
func BenchmarkGuardianStrcpy(b *testing.B) {
	for _, kind := range []rt.Kind{rt.GiantSan, rt.ASan} {
		for _, n := range []uint64{64, 1024, 16384} {
			b.Run(fmt.Sprintf("%s/%dB", kind, n), func(b *testing.B) {
				env := rt.New(rt.Config{Kind: kind, HeapBytes: 4 << 20})
				log := &report.Log{}
				lib := libc.New(env, log)
				src, _ := env.Malloc(n + 8)
				lib.Memset(src, 'a', n)
				env.Space().Store8(src+vmem.Addr(n), 0)
				dst, _ := env.Malloc(n + 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !lib.Strcpy(dst, src) {
						b.Fatal("strcpy refused")
					}
				}
			})
		}
	}
}

// BenchmarkDetectorAPI measures the public facade's per-access cost.
func BenchmarkDetectorAPI(b *testing.B) {
	for _, tl := range []Tool{GiantSan, ASan, LFP} {
		b.Run(tl.String(), func(b *testing.B) {
			d := New(Config{Tool: tl})
			buf, err := d.Malloc(4096)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Write(buf, int64(i%4096)&^7, 8, uint64(i))
			}
		})
	}
}
