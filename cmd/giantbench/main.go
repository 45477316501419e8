// Command giantbench regenerates the paper's evaluation: every table,
// figure and committed BENCH_*.json artifact is one row of its experiment
// registry.
//
// Usage:
//
//	giantbench -exp NAME [-scale N] [-reps N] [-json] [-check] [engine flags]
//	giantbench -exp all
//
// The rows, in registry order:
//
//	table2      Table 2: runtime overhead vs native (-scale, -reps)
//	ablation    Table 2 with the CacheOnly / EliminationOnly columns
//	fig10       Figure 10: check classification per kernel (-scale)
//	redzone     §4.4.1 redzone time/footprint trade-off (-scale)
//	quarantine  §5.4 quarantine-bypass window
//	hotpath     checker hot paths: ns/check, shadow-loads/check → BENCH_hotpath.json
//	metapath    allocation metadata path: ns/op, shadow-stores/op → BENCH_metapath.json
//	tiers       service tier ladder: cost vs detection → BENCH_tiers.json
//	fuzz        guided vs blind fuzzing, executions to detection → BENCH_fuzz.json
//	fig11       Figure 11: traversal study with the §5.4 mitigation (-reps)
//	table3      Table 3: Juliet-like detection suite
//	table4      Table 4: Linux Flaw Project CVEs
//	table5      Table 5: Magma redzone study
//	canary      differential validation campaign (fast vs reference vs oracle)
//
// -exp all runs every row but canary, in that order; tables 3-5 come
// last, after fig11. The canary is a validation suite, not a paper table:
// it runs only when named, and any discrepancy between its legs fails the
// run (exit 1) with or without -check.
//
// Each row prints its caption and table, or with -json its report as
// indented JSON. A row with an artifact also writes that report to
// BENCH_<name>.json in the working directory. -check enforces the gates
// the CI applies, at floors that are constants of the measuring packages:
//
//	metapath    every GiantSan churn's fast-vs-reference speedup ≥ metapath.MinSpeedup (1.0)
//	tiers       cost strictly monotone down the ladder, detection never increasing
//	fuzz        guided detects every class, geomean ≥ fuzzbench.MinGeomean (1.5)
//
// The suites' sizes (hot-path passes, metadata ops, tier seeds, fuzz
// campaigns and budget, canary programs) are their packages' defaults.
// An unknown -exp name exits 2 and lists the rows.
//
// Engine flags:
//
//	-parallel N          worker count for the experiment matrix
//	                     (default 0 = GOMAXPROCS); every work item runs
//	                     in its own shared-nothing runtime and results
//	                     are merged in matrix order, so the output is
//	                     identical at any -parallel level
//	-timeout D           per-item guard (e.g. 2m): a hung kernel fails
//	                     the run instead of wedging it (default off)
//	-clock virtual|wall  timing source for table2/ablation/fig11/canary.
//	                     "virtual" (the default) bills each run's counted
//	                     work at fixed latencies, making timing tables
//	                     byte-identical across runs, machines and
//	                     -parallel levels; "wall" measures real time —
//	                     the paper's actual methodology, best taken with
//	                     -parallel 1
//	-quiet               suppress the progress/ETA lines on stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"giantsan/internal/bench"
	"giantsan/internal/bench/fuzzbench"
	"giantsan/internal/bench/hotpath"
	"giantsan/internal/bench/metapath"
	"giantsan/internal/flaws"
	"giantsan/internal/juliet"
	"giantsan/internal/magma"
	"giantsan/internal/parallel"
)

// params is what a row's run reads from the command line.
type params struct {
	scale, reps int
	opts        bench.Options
}

// exp is one registry row in typed form; R is its report type, which the
// render, the artifact, -json and the check all read.
type exp[R any] struct {
	name string
	// caption is printed above the rendered table; empty for renders
	// that title themselves.
	caption string
	run     func(params) (R, error)
	render  func(R) string
	// artifact rows also write their report to BENCH_<name>.json.
	artifact bool
	// check is the row's gate, enforced under -check; nil when it has none.
	check func(R) error
	// validation rows run only when named, never under -exp all, and
	// enforce their check on every run.
	validation bool
}

// experiment is a registry row with its report type erased.
type experiment struct {
	name, caption        string
	run                  func(params) (any, error)
	render               func(any) string
	check                func(any) error
	artifact, validation bool
}

func (e exp[R]) row() experiment {
	x := experiment{
		name: e.name, caption: e.caption, artifact: e.artifact, validation: e.validation,
		run:    func(p params) (any, error) { return e.run(p) },
		render: func(rep any) string { return e.render(rep.(R)) },
	}
	if e.check != nil {
		x.check = func(rep any) error { return e.check(rep.(R)) }
	}
	return x
}

// table2Report is the table2/ablation report: the rows and their
// per-configuration geometric means.
type table2Report struct {
	Rows     []bench.Table2Row  `json:"rows"`
	GeoMeans map[string]float64 `json:"geoMeans"`
}

func table2(name string, ablation bool, caption string) experiment {
	return exp[table2Report]{
		name: name, caption: caption,
		run: func(p params) (table2Report, error) {
			res, err := bench.Table2(p.scale, p.reps, ablation, p.opts)
			if err != nil {
				return table2Report{}, err
			}
			return table2Report{res.Rows, bench.GeoMeans(res.Rows)}, nil
		},
		render: func(r table2Report) string { return bench.RenderTable2(r.Rows, ablation) },
	}.row()
}

// The study sizes behind rows that take no size flag.
var (
	quarantineBudgets = []uint64{96, 960, 9600, 96000, 1 << 20}
	fig11Sizes        = []uint64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}
)

const quarantinePressure = 200

// registry is every experiment, in -exp all order.
var registry = []experiment{
	table2("table2", false, "Table 2 — runtime overhead vs native (SPEC-like kernels)"),
	table2("ablation", true, "Table 2 (ablation) — CacheOnly / EliminationOnly columns"),
	exp[[]bench.Fig10Row]{
		name:    "fig10",
		caption: "Figure 10 — proportion of memory instructions per protection category",
		run:     func(p params) ([]bench.Fig10Row, error) { return bench.Fig10(p.scale, p.opts) },
		render:  bench.RenderFig10,
	}.row(),
	exp[[]bench.RedzoneRow]{
		name:    "redzone",
		caption: "Redzone trade-off (§4.4.1) — time and live-population footprint",
		run:     func(p params) ([]bench.RedzoneRow, error) { return bench.RedzoneAblation(p.scale) },
		render:  bench.RenderRedzone,
	}.row(),
	exp[[]bench.QuarantineRow]{
		name:    "quarantine",
		caption: "Quarantine-bypass study (§5.4) — dangling-pointer detection vs budget",
		run: func(p params) ([]bench.QuarantineRow, error) {
			return bench.QuarantineAblation(quarantineBudgets, quarantinePressure, p.opts)
		},
		render: bench.RenderQuarantine,
	}.row(),
	exp[*hotpath.Report]{
		name:     "hotpath",
		caption:  "Hot-path microbenchmark — ns/check and shadow-loads/check per sanitizer × shape",
		run:      func(params) (*hotpath.Report, error) { return hotpath.Run(0) },
		render:   hotpath.Render,
		artifact: true,
	}.row(),
	exp[*metapath.Report]{
		name:     "metapath",
		caption:  "Metadata-path microbenchmark — ns/op and shadow-stores/op per sanitizer × class × churn",
		run:      func(params) (*metapath.Report, error) { return metapath.Run(0) },
		render:   metapath.Render,
		artifact: true,
		check:    func(r *metapath.Report) error { return metapath.Check(r, metapath.MinSpeedup) },
	}.row(),
	exp[*bench.TiersReport]{
		name:     "tiers",
		caption:  "Sanitization tiers — virtual ns/session vs planted-bug detection per ladder rung",
		run:      func(p params) (*bench.TiersReport, error) { return bench.TiersRun(0, p.opts) },
		render:   bench.RenderTiers,
		artifact: true,
		check:    bench.CheckMonotone,
	}.row(),
	exp[*fuzzbench.Report]{
		name:     "fuzz",
		caption:  "Sanitizer-guided fuzzing — executions-to-detection, guided vs blind campaigns",
		run:      func(p params) (*fuzzbench.Report, error) { return fuzzbench.Run(0, 0, p.opts.Parallel) },
		render:   fuzzbench.Render,
		artifact: true,
		check:    func(r *fuzzbench.Report) error { return fuzzbench.Check(r, fuzzbench.MinGeomean) },
	}.row(),
	exp[[]bench.Fig11Point]{
		name:   "fig11",
		run:    func(p params) ([]bench.Fig11Point, error) { return bench.Fig11(fig11Sizes, 50*p.reps, p.opts) },
		render: bench.RenderFig11,
	}.row(),
	exp[[]juliet.Result]{
		name:    "table3",
		caption: "Table 3 — detection capability on the Juliet-like suite",
		run:     func(p params) ([]juliet.Result, error) { return bench.Table3(p.opts), nil },
		render:  bench.RenderTable3,
	}.row(),
	exp[[]flaws.Result]{
		name:    "table4",
		caption: "Table 4 — detection capability for Linux Flaw Project CVEs",
		run:     func(p params) ([]flaws.Result, error) { return bench.Table4(p.opts), nil },
		render:  bench.RenderTable4,
	}.row(),
	exp[[]magma.Result]{
		name:    "table5",
		caption: "Table 5 — detection under redzone settings (Magma-like corpus)",
		run:     func(p params) ([]magma.Result, error) { return bench.Table5(p.opts), nil },
		render:  bench.RenderTable5,
	}.row(),
	exp[*bench.CanaryReport]{
		name:    "canary",
		caption: "Differential validation canary — fast vs reference vs oracle over generated programs",
		run:     func(p params) (*bench.CanaryReport, error) { return bench.CanaryRun(0, "", "", p.opts) },
		// RenderCanary ends its summary with a newline of its own.
		render: func(r *bench.CanaryReport) string { return strings.TrimSuffix(bench.RenderCanary(r), "\n") },
		check: func(r *bench.CanaryReport) error {
			if r.Discrepancies > 0 || r.Failures > 0 {
				return fmt.Errorf("%d discrepancies, %d failures", r.Discrepancies, r.Failures)
			}
			return nil
		},
		validation: true,
	}.row(),
}

func main() {
	os.Exit(execute(registry, os.Args[1:], ".", os.Stdout, os.Stderr))
}

// execute parses args, runs the selected rows of rows in order and
// returns the exit code: 0 on success, 1 when a row fails to run, to
// write its artifact or its check, 2 on a usage error. Artifacts go to
// dir.
func execute(rows []experiment, args []string, dir string, stdout, stderr io.Writer) int {
	var names []string
	for _, r := range rows {
		names = append(names, r.name)
	}
	fs := flag.NewFlagSet("giantbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", or all (every row but canary)")
	scale := fs.Int("scale", 1, "workload scale factor")
	reps := fs.Int("reps", 3, "repetitions per measurement (median)")
	par := fs.Int("parallel", 0, "matrix worker count; 0 = GOMAXPROCS")
	timeout := fs.Duration("timeout", 0, "per-item timeout guard; 0 disables")
	clock := fs.String("clock", "virtual", "timing source: virtual (deterministic cost model) or wall")
	quiet := fs.Bool("quiet", false, "suppress progress/ETA lines on stderr")
	asJSON := fs.Bool("json", false, "print each report as indented JSON instead of its table")
	check := fs.Bool("check", false, "fail the run when a report misses its row's CI gate")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *clock != "virtual" && *clock != "wall" {
		fmt.Fprintf(stderr, "giantbench: -clock must be virtual or wall, got %q\n", *clock)
		return 2
	}
	var selected []experiment
	for _, r := range rows {
		if r.name == *name || (*name == "all" && !r.validation) {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "giantbench: unknown experiment %q; choose one of: %s, all\n", *name, strings.Join(names, ", "))
		return 2
	}

	for _, r := range selected {
		p := params{scale: *scale, reps: *reps, opts: bench.Options{
			Parallel:    *par,
			Timeout:     *timeout,
			VirtualTime: *clock == "virtual",
		}}
		if !*quiet {
			p.opts.Progress = parallel.Printer(stderr, "giantbench: "+r.name, 500*time.Millisecond)
		}
		if err := r.exec(p, dir, *asJSON, *check, stdout); err != nil {
			fmt.Fprintf(stderr, "giantbench: %s: %v\n", r.name, err)
			return 1
		}
	}
	return 0
}

// exec runs the row, writes its artifact, prints its report and applies
// its check.
func (r experiment) exec(p params, dir string, asJSON, check bool, stdout io.Writer) error {
	rep, err := r.run(p)
	if err != nil {
		return err
	}
	path := ""
	if r.artifact {
		path = filepath.Join(dir, "BENCH_"+r.name+".json")
		if err := writeArtifact(path, rep); err != nil {
			return err
		}
	}
	if asJSON {
		if err := encodeJSON(stdout, rep); err != nil {
			return err
		}
	} else {
		if r.caption != "" {
			fmt.Fprintln(stdout, r.caption)
		}
		fmt.Fprintln(stdout, r.render(rep))
		if path != "" {
			fmt.Fprintf(stdout, "(written to %s)\n", path)
		}
	}
	if r.check != nil && (check || r.validation) {
		return r.check(rep)
	}
	return nil
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeArtifact(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
