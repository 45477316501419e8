package bench

import (
	"reflect"
	"sync"
	"testing"

	"giantsan/internal/parallel"
	"giantsan/internal/workload"
)

// shared holds one expensive result, computed at most once per test
// binary: each parallel-1 table below is read both by the determinism
// test that compares it with a parallel-8 run and by the tests that
// assert on its content.
type shared[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (s *shared[T]) get(t *testing.T, compute func() (T, error)) T {
	t.Helper()
	s.once.Do(func() { s.v, s.err = compute() })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.v
}

var (
	table2P1 shared[*Table2Result]
	fig10P1  shared[[]Fig10Row]
	table3P1 shared[string]
	table4P1 shared[string]
	table5P1 shared[string]
)

// sequentialTable2 is the parallel-1, two-repetition, virtual-clock Table
// 2 matrix with the ablation columns.
func sequentialTable2(t *testing.T) *Table2Result {
	return table2P1.get(t, func() (*Table2Result, error) {
		return Table2(1, 2, true, Options{Parallel: 1, VirtualTime: true})
	})
}

func sequentialFig10(t *testing.T) []Fig10Row {
	return fig10P1.get(t, func() ([]Fig10Row, error) { return Fig10(1, Options{Parallel: 1}) })
}

// sequentialTable3, 4 and 5 are the parallel-1 renders of the detection
// tables.
func sequentialTable3(t *testing.T) string {
	return table3P1.get(t, func() (string, error) { return RenderTable3(Table3(Options{Parallel: 1})), nil })
}

func sequentialTable4(t *testing.T) string {
	return table4P1.get(t, func() (string, error) { return RenderTable4(Table4(Options{Parallel: 1})), nil })
}

func sequentialTable5(t *testing.T) string {
	return table5P1.get(t, func() (string, error) { return RenderTable5(Table5(Options{Parallel: 1})), nil })
}

// TestTable2RunParallelDeterministic is the engine's core contract: the
// full kernel × sanitizer × repetition matrix, run at one worker and at
// eight, must render byte-identical tables and merge to identical Stats.
// Virtual time makes the timing cells themselves comparable; the merge
// order (matrix index, never completion order) does the rest.
func TestTable2RunParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full performance matrix twice")
	}
	seq := sequentialTable2(t)
	par, err := Table2(1, 2, true, Options{Parallel: 8, VirtualTime: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := RenderTable2(seq.Rows, true), RenderTable2(par.Rows, true)
	if a != b {
		t.Errorf("rendered tables differ between -parallel 1 and 8:\n--- sequential\n%s\n--- parallel\n%s", a, b)
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Errorf("merged Stats differ between -parallel 1 and 8:\nseq: %+v\npar: %+v", seq.Stats, par.Stats)
	}
	if len(seq.Stats) != len(Configs()) {
		t.Errorf("Stats has %d labels, want one per config (%d)", len(seq.Stats), len(Configs()))
	}

	// Virtual time must preserve the paper's Table 2 shape: the cost
	// model's geometric means keep native < GiantSan < ASan-- < ASan, with
	// both ablations between full GiantSan and ASan — deterministically,
	// on any machine.
	gm := GeoMeans(seq.Rows)
	if !(1.0 < gm["giantsan"] && gm["giantsan"] < gm["asan--"] && gm["asan--"] < gm["asan"]) {
		t.Errorf("virtual-time ordering violated: giantsan=%.3f asan--=%.3f asan=%.3f",
			gm["giantsan"], gm["asan--"], gm["asan"])
	}
	for _, abl := range []string{"cacheonly", "elimonly"} {
		if !(gm["giantsan"] <= gm[abl] && gm[abl] < gm["asan"]) {
			t.Errorf("virtual-time %s=%.3f outside [giantsan=%.3f, asan=%.3f)",
				abl, gm[abl], gm["giantsan"], gm["asan"])
		}
	}
}

// TestFig11RunParallelDeterministic covers the other timing figure: under
// virtual time the traversal matrix must produce identical points at any
// worker count.
func TestFig11RunParallelDeterministic(t *testing.T) {
	sizes := []uint64{1024, 4096}
	seq, err := Fig11(sizes, 2, Options{Parallel: 1, VirtualTime: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig11(sizes, 2, Options{Parallel: 8, VirtualTime: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig11 points differ between -parallel 1 and 8:\nseq: %+v\npar: %+v", seq, par)
	}
	if RenderFig11(seq) != RenderFig11(par) {
		t.Error("rendered Fig11 differs between -parallel 1 and 8")
	}
}

// TestFig10RunParallelDeterministic: the ablation proportions are counter
// ratios, so parallelism must not perturb them at all.
func TestFig10RunParallelDeterministic(t *testing.T) {
	seq := sequentialFig10(t)
	par, err := Fig10(1, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig10 rows differ between -parallel 1 and 8")
	}
}

// TestDetectionTablesParallelDeterministic: Table 4 (cheap enough to run
// twice unconditionally) must render byte-identically at any worker
// count; Tables 3 and 5 — the Juliet corpus and Magma's ~295k POC
// executions — join in full (non-short) runs.
func TestDetectionTablesParallelDeterministic(t *testing.T) {
	if a, b := sequentialTable4(t), RenderTable4(Table4(Options{Parallel: 8})); a != b {
		t.Errorf("table 4 differs between -parallel 1 and 8:\n%s\nvs\n%s", a, b)
	}
	if testing.Short() {
		return
	}
	if a, b := sequentialTable3(t), RenderTable3(Table3(Options{Parallel: 8})); a != b {
		t.Errorf("table 3 differs between -parallel 1 and 8:\n%s\nvs\n%s", a, b)
	}
	if a, b := sequentialTable5(t), RenderTable5(Table5(Options{Parallel: 8})); a != b {
		t.Errorf("table 5 differs between -parallel 1 and 8:\n%s\nvs\n%s", a, b)
	}
}

// TestVirtualTimeReproducible: the same cell must get the same virtual
// duration on every run — that is the whole point of the cost model.
func TestVirtualTimeReproducible(t *testing.T) {
	w := workload.ByID("505.mcf_r")
	cfg := Configs()[1]
	_, r1, err := RunOnce(w, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := RunOnce(w, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := virtualDuration(r1), virtualDuration(r2)
	if d1 != d2 {
		t.Errorf("virtual durations differ across identical runs: %v vs %v", d1, d2)
	}
	if d1 <= 0 {
		t.Errorf("virtual duration %v not positive", d1)
	}
}

// TestBenchProgress: the engine surfaces progress snapshots for the cmd
// layer's ETA lines; the final snapshot must account for every item.
func TestBenchProgress(t *testing.T) {
	var last parallel.Progress
	_, err := Fig10(1, Options{Parallel: 4, Progress: func(p parallel.Progress) { last = p }})
	if err != nil {
		t.Fatal(err)
	}
	if last.Done != last.Total || last.Total != len(workload.All()) {
		t.Errorf("final progress %+v, want done == total == %d", last, len(workload.All()))
	}
}
