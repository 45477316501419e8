// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (§5): Table 2 with its
// ablation columns, Figure 10, Tables 3-5 and Figure 11. The cmd/
// binaries and the top-level benchmarks are thin wrappers over this
// package.
package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/lfp"
	"giantsan/internal/parallel"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/texttable"
	"giantsan/internal/workload"
)

// SanConfig is one Table 2 column: an instrumentation profile bound to a
// runtime kind.
type SanConfig struct {
	Label   string
	Profile instrument.Profile
	Kind    rt.Kind
	// IsLFP selects the low-fat-pointer runtime instead of a shadow one.
	IsLFP bool
	// Ablation marks the CacheOnly/EliminationOnly columns.
	Ablation bool
}

// Configs returns the Table 2 columns in the paper's order.
func Configs() []SanConfig {
	return []SanConfig{
		{Label: "native", Profile: instrument.Native, Kind: rt.GiantSan},
		{Label: "giantsan", Profile: instrument.GiantSanProfile, Kind: rt.GiantSan},
		{Label: "asan", Profile: instrument.ASanProfile, Kind: rt.ASan},
		{Label: "asan--", Profile: instrument.ASanMinusProfile, Kind: rt.ASanMinus},
		{Label: "lfp", Profile: instrument.LFPProfile, IsLFP: true},
		{Label: "cacheonly", Profile: instrument.CacheOnly, Kind: rt.GiantSan, Ablation: true},
		{Label: "elimonly", Profile: instrument.ElimOnly, Kind: rt.GiantSan, Ablation: true},
	}
}

// lfpBuildFailure records the projects LFP cannot build (Table 2's CE/RE
// rows: perlbench, gcc, parest and imagick fail to compile; 602.gcc_s
// fails at run time).
var lfpBuildFailure = map[string]string{
	"500.perlbench_r": "CE",
	"502.gcc_r":       "CE",
	"510.parest_r":    "CE",
	"538.imagick_r":   "CE",
	"600.perlbench_s": "CE",
	"602.gcc_s":       "RE",
	"638.imagick_s":   "CE",
}

// LFPFailure returns the Table 2 failure code ("CE"/"RE") for programs
// LFP cannot build or run, or "" when the workload is supported. The
// service layer consults it to refuse LFP sessions that a native LFP
// toolchain would have rejected at compile time.
func LFPFailure(id string) string { return lfpBuildFailure[id] }

// Cell is one Table 2 measurement.
type Cell struct {
	// Seconds is the median wall time.
	Seconds float64
	// Ratio is Seconds over the native column.
	Ratio float64
	// Fail is "CE"/"RE" when the configuration cannot run the program.
	Fail string
}

// Table2Row is one program's measurements across all configurations.
type Table2Row struct {
	ID    string
	Cells map[string]Cell
}

// newRuntime builds the runtime for a configuration and workload.
func newRuntime(cfg SanConfig, w *workload.Workload, scale int) rt.Runtime {
	heapBytes := w.HeapBytes * uint64(scale)
	if cfg.IsLFP {
		return lfp.New(lfp.Config{HeapBytes: heapBytes * 2, MaxClass: 1 << 20})
	}
	return rt.New(rt.Config{Kind: cfg.Kind, HeapBytes: heapBytes, Reference: cfg.Profile.Reference})
}

// RunOnce executes one (workload, config) pair once and returns the wall
// time of the run (excluding IR compilation and arena setup, including
// allocation, poisoning and checking — the work a sanitizer adds).
func RunOnce(w *workload.Workload, cfg SanConfig, scale int) (time.Duration, *interp.Result, error) {
	prog := w.Build(scale)
	env := newRuntime(cfg, w, scale)
	ex, err := interp.Prepare(prog, cfg.Profile, env)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	res := ex.Run()
	elapsed := time.Since(start)
	if res.Errors.Total() != 0 {
		return elapsed, res, fmt.Errorf("%s under %s reported %d errors (workloads must be clean): first %v",
			w.ID, cfg.Label, res.Errors.Total(), res.Errors.Errors[0])
	}
	return elapsed, res, nil
}

// median of a duration sample.
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// Table2Result bundles the merged outputs of one Table 2 matrix run.
type Table2Result struct {
	Rows []Table2Row
	// Stats is the sanitizer work per configuration label, merged across
	// the whole matrix in index order.
	Stats map[string]*san.Stats
}

// table2Item is one cell-sample of the kernel × sanitizer × repetition
// matrix. LFP build/run failures (static Table 2 facts) never become
// items; they are filled in at merge time.
type table2Item struct {
	wi, ci, rep int
}

// Table2 regenerates the performance study: every workload under every
// configuration, reps repetitions each (median taken). The kernel ×
// sanitizer × repetition matrix is sharded across the worker pool. Each
// item executes one repetition inside its own freshly constructed
// runtime; samples, medians and Stats are merged by matrix index, so the
// rendered table is identical at any opts.Parallel level (byte-identical
// across machines too under opts.VirtualTime). Wall-clock timing is best
// taken at opts.Parallel 1.
func Table2(scale, reps int, includeAblation bool, opts Options) (*Table2Result, error) {
	ws := workload.All()
	cfgs := Configs()
	var items []table2Item
	for wi := range ws {
		for ci, cfg := range cfgs {
			if cfg.Ablation && !includeAblation {
				continue
			}
			if cfg.IsLFP {
				if _, ok := lfpBuildFailure[ws[wi].ID]; ok {
					continue
				}
			}
			for rep := 0; rep < reps; rep++ {
				items = append(items, table2Item{wi, ci, rep})
			}
		}
	}
	type sample struct {
		dur time.Duration
		san san.Stats
	}
	samples, err := parallel.Map(len(items), opts.pool(), func(k int) (sample, error) {
		it := items[k]
		d, res, err := RunOnce(ws[it.wi], cfgs[it.ci], scale)
		if err != nil {
			return sample{}, err
		}
		if opts.VirtualTime {
			d = virtualDuration(res)
		}
		return sample{dur: d, san: res.San}, nil
	})
	if err != nil {
		return nil, err
	}

	// Merge in matrix order: item indices ascend through (wi, ci, rep),
	// so grouping by cell preserves repetition order and the Stats
	// accumulation order is independent of completion order.
	out := &Table2Result{Stats: map[string]*san.Stats{}}
	type cellKey struct{ wi, ci int }
	durs := map[cellKey][]time.Duration{}
	for k := range samples {
		it := items[k]
		durs[cellKey{it.wi, it.ci}] = append(durs[cellKey{it.wi, it.ci}], samples[k].dur)
		label := cfgs[it.ci].Label
		if out.Stats[label] == nil {
			out.Stats[label] = samples[k].san.Clone()
		} else {
			out.Stats[label].Add(&samples[k].san)
		}
	}
	for wi, w := range ws {
		row := Table2Row{ID: w.ID, Cells: map[string]Cell{}}
		var native float64
		for ci, cfg := range cfgs {
			if cfg.Ablation && !includeAblation {
				continue
			}
			if cfg.IsLFP {
				if fail, ok := lfpBuildFailure[w.ID]; ok {
					row.Cells[cfg.Label] = Cell{Fail: fail}
					continue
				}
			}
			sec := median(durs[cellKey{wi, ci}]).Seconds()
			cell := Cell{Seconds: sec}
			if cfg.Label == "native" {
				native = sec
			}
			if native > 0 {
				cell.Ratio = sec / native
			}
			row.Cells[cfg.Label] = cell
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// GeoMeans computes the geometric-mean ratio per configuration over rows,
// skipping failed cells (as the paper does for LFP's CE/RE entries).
func GeoMeans(rows []Table2Row) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, row := range rows {
		for label, cell := range row.Cells {
			if cell.Fail != "" || cell.Ratio == 0 {
				continue
			}
			sums[label] += math.Log(cell.Ratio)
			counts[label]++
		}
	}
	out := map[string]float64{}
	for label, s := range sums {
		out[label] = math.Exp(s / float64(counts[label]))
	}
	return out
}

// RenderTable2 renders rows in the paper's layout.
func RenderTable2(rows []Table2Row, includeAblation bool) string {
	headers := []string{"Program", "Native(s)", "GiantSan", "ASan", "ASan--", "LFP"}
	labels := []string{"giantsan", "asan", "asan--", "lfp"}
	if includeAblation {
		headers = append(headers, "CacheOnly", "ElimOnly")
		labels = append(labels, "cacheonly", "elimonly")
	}
	tb := texttable.New(headers...)
	for _, row := range rows {
		cells := []any{row.ID, fmt.Sprintf("%.3f", row.Cells["native"].Seconds)}
		for _, l := range labels {
			c := row.Cells[l]
			if c.Fail != "" {
				cells = append(cells, c.Fail)
			} else {
				cells = append(cells, fmt.Sprintf("%.2f%%", 100*c.Ratio))
			}
		}
		tb.Add(cells...)
	}
	gm := GeoMeans(rows)
	cells := []any{"Geometric Means", ""}
	for _, l := range labels {
		cells = append(cells, fmt.Sprintf("%.2f%%", 100*gm[l]))
	}
	tb.Add(cells...)
	return tb.String()
}
