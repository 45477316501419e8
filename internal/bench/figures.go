package bench

import (
	"fmt"
	"time"

	"giantsan/internal/flaws"
	"giantsan/internal/instrument"
	"giantsan/internal/juliet"
	"giantsan/internal/magma"
	"giantsan/internal/parallel"
	"giantsan/internal/texttable"
	"giantsan/internal/tool"
	"giantsan/internal/traversal"
	"giantsan/internal/workload"
)

// Fig10Row is one bar of Figure 10: the proportion of dynamic memory
// instructions per protection category under GiantSan, with ASan's check
// set (= every access) as the baseline.
type Fig10Row struct {
	ID                                      string
	Eliminated, Cached, FastOnly, FullCheck float64
}

// Fig10 regenerates the ablation proportions, sharding the 24 kernels
// across the worker pool; each item runs the full-GiantSan configuration
// in its own runtime. Rows are merged in workload order, and the
// proportions are counter ratios, so they are identical at any
// parallelism.
func Fig10(scale int, opts Options) ([]Fig10Row, error) {
	cfg := Configs()[1] // the full GiantSan configuration
	if cfg.Profile.Name != instrument.GiantSanProfile.Name {
		panic("bench: Configs order changed; Fig10 needs giantsan")
	}
	ws := workload.All()
	return parallel.Map(len(ws), opts.pool(), func(i int) (Fig10Row, error) {
		w := ws[i]
		_, res, err := RunOnce(w, cfg, scale)
		if err != nil {
			return Fig10Row{}, err
		}
		total := float64(res.Stats.Accesses)
		return Fig10Row{
			ID:         w.ID,
			Eliminated: float64(res.Stats.Eliminated) / total,
			Cached:     float64(res.Stats.Cached) / total,
			FastOnly:   float64(res.Stats.FastOnly) / total,
			FullCheck:  float64(res.Stats.FullCheck) / total,
		}, nil
	})
}

// Fig10Means averages the category shares across programs.
func Fig10Means(rows []Fig10Row) Fig10Row {
	var m Fig10Row
	m.ID = "mean"
	for _, r := range rows {
		m.Eliminated += r.Eliminated
		m.Cached += r.Cached
		m.FastOnly += r.FastOnly
		m.FullCheck += r.FullCheck
	}
	n := float64(len(rows))
	m.Eliminated /= n
	m.Cached /= n
	m.FastOnly /= n
	m.FullCheck /= n
	return m
}

// RenderFig10 renders the proportions.
func RenderFig10(rows []Fig10Row) string {
	tb := texttable.New("Program", "Eliminated", "Cached", "FastOnly", "FullCheck")
	pct := func(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
	for _, r := range rows {
		tb.Add(r.ID, pct(r.Eliminated), pct(r.Cached), pct(r.FastOnly), pct(r.FullCheck))
	}
	m := Fig10Means(rows)
	tb.Add("MEAN", pct(m.Eliminated), pct(m.Cached), pct(m.FastOnly), pct(m.FullCheck))
	return tb.String()
}

// Fig11Point is one measured point of Figure 11.
type Fig11Point struct {
	Pattern  traversal.Pattern
	Mode     traversal.Mode
	BufBytes uint64
	PerPass  time.Duration
}

// Fig11 measures every pattern × mode × size point, reps passes averaged
// per point. The mode set includes GiantSanLB, the §5.4 lower-bound
// mitigation, so the figure shows both the limitation and its proposed
// fix. The matrix is sharded across the worker pool; each item builds its
// own harness (buffer, runtime, shadow) and measures its own passes, and
// points are merged in matrix order. Under opts.VirtualTime the per-pass
// duration is derived from the harness's check and metadata-load counters
// instead of the wall clock; wall-clock runs are best taken at
// opts.Parallel 1.
func Fig11(sizes []uint64, reps int, opts Options) ([]Fig11Point, error) {
	type fig11Item struct {
		pattern traversal.Pattern
		mode    traversal.Mode
		size    uint64
	}
	var items []fig11Item
	for _, p := range traversal.Patterns() {
		for _, m := range traversal.ModesWithMitigation() {
			for _, size := range sizes {
				items = append(items, fig11Item{p, m, size})
			}
		}
	}
	return parallel.Map(len(items), opts.pool(), func(i int) (Fig11Point, error) {
		it := items[i]
		h, err := traversal.New(it.mode, it.pattern, it.size)
		if err != nil {
			return Fig11Point{}, err
		}
		h.Traverse() // warm-up: converge the quasi-bound, fault pages
		before := h.SanStats().Clone()
		start := time.Now()
		for r := 0; r < reps; r++ {
			h.Traverse()
		}
		perPass := time.Since(start) / time.Duration(reps)
		if opts.VirtualTime {
			delta := h.SanStats().Sub(before)
			cost := h.Elems()*uint64(reps)*vAccessNs +
				delta.Checks*vCheckNs +
				delta.ShadowLoads*vShadowLoadNs +
				delta.SlowChecks*vSlowCheckNs +
				delta.CacheRefills*vCacheRefillNs +
				delta.RangeChecks*vRangeCheckNs
			perPass = time.Duration(cost/uint64(reps)) * time.Nanosecond
		}
		return Fig11Point{Pattern: it.pattern, Mode: it.mode, BufBytes: it.size, PerPass: perPass}, nil
	})
}

// RenderFig11 renders one sub-figure per pattern.
func RenderFig11(pts []Fig11Point) string {
	out := ""
	for _, p := range traversal.Patterns() {
		tb := texttable.New("BufKB", "Native", "GiantSan", "GiantSan-LB", "ASan", "GiantSan/ASan")
		bySize := map[uint64]map[traversal.Mode]time.Duration{}
		var sizes []uint64
		for _, pt := range pts {
			if pt.Pattern != p {
				continue
			}
			if bySize[pt.BufBytes] == nil {
				bySize[pt.BufBytes] = map[traversal.Mode]time.Duration{}
				sizes = append(sizes, pt.BufBytes)
			}
			bySize[pt.BufBytes][pt.Mode] = pt.PerPass
		}
		for _, size := range sizes {
			row := bySize[size]
			ratio := float64(row[traversal.GiantSan]) / float64(row[traversal.ASan])
			lb := "-"
			if d, ok := row[traversal.GiantSanLB]; ok {
				lb = d.String()
			}
			tb.Add(float64(size)/1024,
				row[traversal.Native].String(),
				row[traversal.GiantSan].String(),
				lb,
				row[traversal.ASan].String(),
				fmt.Sprintf("%.2fx", ratio))
		}
		out += fmt.Sprintf("Figure 11%c — %s traversal\n%s\n", 'a'+byte(p), p, tb.String())
	}
	return out
}

// DetectionTools builds the standard Table 3/4 tool set.
func DetectionTools() []*tool.Tool {
	return []*tool.Tool{
		tool.New(tool.Config{Kind: tool.GiantSan, HeapBytes: 4 << 20}),
		tool.New(tool.Config{Kind: tool.ASan, HeapBytes: 4 << 20}),
		tool.New(tool.Config{Kind: tool.ASanMinus, HeapBytes: 4 << 20}),
		tool.New(tool.Config{Kind: tool.LFP, HeapBytes: 4 << 20}),
	}
}

// Table3 runs the Juliet study with the corpus sharded across the worker
// pool: one item per generated case, each against a fresh tool set.
// Tallies are merged in case order, so the rows are identical at any
// parallelism.
func Table3(opts Options) []juliet.Result {
	return juliet.RunOpts(DetectionTools, opts.pool())
}

// RenderTable3 renders the Juliet study in the paper's layout.
func RenderTable3(rows []juliet.Result) string {
	tb := texttable.New("CWE ID & Type", "GiantSan", "ASan", "ASan--", "LFP", "Total")
	totals := map[string]int{}
	grand := 0
	for _, r := range rows {
		tb.Add(fmt.Sprintf("%d: %s", r.CWE, juliet.CWEName(r.CWE)),
			r.Detected["giantsan"], r.Detected["asan"], r.Detected["asan--"], r.Detected["lfp"], r.Total)
		for k, v := range r.Detected {
			totals[k] += v
		}
		grand += r.Total
	}
	tb.Add("Total", totals["giantsan"], totals["asan"], totals["asan--"], totals["lfp"], grand)
	return tb.String()
}

// Table4 runs the CVE study sharded one CVE scenario per item; rows keep
// Table 4's order.
func Table4(opts Options) []flaws.Result {
	return flaws.RunOpts(DetectionTools, opts.pool())
}

// RenderTable4 renders the CVE study in the paper's layout.
func RenderTable4(rows []flaws.Result) string {
	tb := texttable.New("Program", "CVE ID", "GiantSan", "ASan", "ASan--", "LFP")
	mark := func(b bool) string {
		if b {
			return "Y"
		}
		return "-"
	}
	for _, r := range rows {
		tb.Add(r.CVE.Program, r.CVE.ID,
			mark(r.Detected["giantsan"]), mark(r.Detected["asan"]),
			mark(r.Detected["asan--"]), mark(r.Detected["lfp"]))
	}
	return tb.String()
}

// Table5 runs the Magma study sharded one (project, tool config) per
// item — each item owns a full runtime sized for its POC corpus.
func Table5(opts Options) []magma.Result {
	return magma.RunAllOpts(opts.pool())
}

// RenderTable5 renders the Magma study in the paper's layout.
func RenderTable5(rows []magma.Result) string {
	tb := texttable.New("Project (LoC)", "ASan--(rz16)", "ASan--(rz512)", "ASan(rz16)", "ASan(rz512)", "GiantSan(rz16)", "Total")
	for _, r := range rows {
		tb.Add(fmt.Sprintf("%s (%s)", r.Project.Name, r.Project.LoC),
			r.Counts["asan--(rz=16)"], r.Counts["asan--(rz=512)"],
			r.Counts["asan(rz=16)"], r.Counts["asan(rz=512)"],
			r.Counts["giantsan(rz=16)"], r.Project.Total())
	}
	return tb.String()
}
