package bench

import (
	"strings"
	"testing"
	"time"

	"giantsan/internal/workload"
)

// TestRunOnceAllConfigs smoke-tests one workload under every column.
func TestRunOnceAllConfigs(t *testing.T) {
	w := workload.ByID("505.mcf_r")
	for _, cfg := range Configs() {
		d, res, err := RunOnce(w, cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		if d <= 0 || res.Stats.Accesses == 0 {
			t.Errorf("%s: empty run", cfg.Label)
		}
	}
}

// TestTable2Shape asserts the paper's ordering on the parallel-1 Table 2
// matrix TestTable2RunParallelDeterministic computes:
//
//	native < giantsan < asan--, asan  (geometric means)
//	and both ablations fall between full GiantSan and ASan.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full performance table")
	}
	res := sequentialTable2(t)
	rows := res.Rows
	if len(rows) != 24 {
		t.Fatal("rows = ", len(rows), ", want 24")
	}
	// Ordering assertions run on the virtual clock: it bills each run's
	// counted work (accesses, checks, metadata loads, refills) at fixed
	// latencies, so the ratios depend only on how much sanitizer work each
	// configuration performs — not on machine load, the race detector, or
	// how aggressively the Go-level check implementations are specialized.
	// (Wall-clock gaps of 1-2 points invert on a loaded CI box, and the
	// hot-path specialization legitimately shifts per-sanitizer Go costs.)
	gm := GeoMeans(rows)
	if !(gm["giantsan"] > 1.0) {
		t.Errorf("GiantSan geomean ratio %.3f should exceed native", gm["giantsan"])
	}
	if !(gm["giantsan"] < gm["asan"]) {
		t.Errorf("ordering violated: giantsan %.3f !< asan %.3f", gm["giantsan"], gm["asan"])
	}
	if !(gm["giantsan"] < gm["asan--"]) {
		t.Errorf("ordering violated: giantsan %.3f !< asan-- %.3f", gm["giantsan"], gm["asan--"])
	}
	for _, abl := range []string{"cacheonly", "elimonly"} {
		if !(gm[abl] >= gm["giantsan"]*0.93) {
			t.Errorf("%s %.3f should not beat full giantsan %.3f", abl, gm[abl], gm["giantsan"])
		}
		if !(gm[abl] < gm["asan"]) {
			t.Errorf("%s %.3f should beat asan %.3f", abl, gm[abl], gm["asan"])
		}
	}

	// Deterministic ordering: total sanitizer work (checks + metadata
	// loads) across the whole suite must strictly decrease ASan → ASan--
	// → GiantSan, independent of machine load. The matrix's merged Stats
	// sum every kernel's runs per configuration.
	work := map[string]uint64{}
	for _, label := range []string{"giantsan", "asan", "asan--"} {
		work[label] = res.Stats[label].Checks + res.Stats[label].ShadowLoads
	}
	if !(work["giantsan"] < work["asan--"] && work["asan--"] < work["asan"]) {
		t.Errorf("work ordering violated: giantsan=%d asan--=%d asan=%d",
			work["giantsan"], work["asan--"], work["asan"])
	}
	// LFP columns: the paper's CE/RE rows must be reproduced.
	for _, row := range rows {
		if fail, ok := lfpBuildFailure[row.ID]; ok {
			if row.Cells["lfp"].Fail != fail {
				t.Errorf("%s: LFP cell = %q, want %q", row.ID, row.Cells["lfp"].Fail, fail)
			}
		}
	}
	out := RenderTable2(rows, true)
	for _, want := range []string{"Geometric Means", "505.mcf_r", "CE", "RE"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	t.Logf("\n%s", out)
}

// TestFig10MeanShape asserts the headline Figure 10 statistic: on average
// more than half the checks are optimized (paper: 52.56% = 30.76%
// eliminated + 21.80% cached).
func TestFig10MeanShape(t *testing.T) {
	rows := sequentialFig10(t)
	if len(rows) != 24 {
		t.Fatalf("rows = %d", len(rows))
	}
	m := Fig10Means(rows)
	optimized := m.Eliminated + m.Cached
	if optimized < 0.4 || optimized > 0.9 {
		t.Errorf("mean optimized share %.2f, want around the paper's 0.53", optimized)
	}
	if m.Eliminated < 0.15 {
		t.Errorf("mean eliminated %.2f too low", m.Eliminated)
	}
	if m.Cached < 0.10 {
		t.Errorf("mean cached %.2f too low", m.Cached)
	}
	// Of the non-optimized remainder, the fast check must dominate
	// (paper: 49.22% of remaining tasks are fast-only; full checks rare).
	if m.FullCheck > m.FastOnly {
		t.Errorf("full checks (%.2f) should be rarer than fast-only (%.2f)", m.FullCheck, m.FastOnly)
	}
	t.Logf("\n%s", RenderFig10(rows))
}

func TestFig11Measures(t *testing.T) {
	pts, err := Fig11([]uint64{1024, 4096}, 3, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*4*2 { // 3 patterns × 4 modes (incl. the §5.4 mitigation) × 2 sizes
		t.Fatalf("points = %d, want 24", len(pts))
	}
	for _, p := range pts {
		if p.PerPass <= 0 {
			t.Errorf("%v/%v/%d: non-positive time", p.Mode, p.Pattern, p.BufBytes)
		}
	}
	out := RenderFig11(pts)
	for _, want := range []string{"Figure 11a", "forward", "reverse", "GiantSan/ASan"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestDetectionTablesRender asserts on the parallel-1 renders
// TestDetectionTablesParallelDeterministic computes.
func TestDetectionTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection suites")
	}
	t3 := sequentialTable3(t)
	if !strings.Contains(t3, "121: Stack Buffer Overflow") || !strings.Contains(t3, "Total") {
		t.Error("table 3 render incomplete")
	}
	t4 := sequentialTable4(t)
	if !strings.Contains(t4, "CVE-2017-12858") {
		t.Error("table 4 render incomplete")
	}
	t5 := sequentialTable5(t)
	if !strings.Contains(t5, "php (1.3M)") {
		t.Error("table 5 render incomplete")
	}
}

// TestRedzoneAblation: bigger redzones must cost real memory; GiantSan at
// rz=16 must not use more memory than ASan at rz=512 (it never needs to —
// the anchor replaces the big redzone, §4.4.1).
func TestRedzoneAblation(t *testing.T) {
	rows, err := RedzoneAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLabel := map[string]RedzoneRow{}
	for _, r := range rows {
		byLabel[r.Config] = r
	}
	if byLabel["asan(rz=512)"].Footprint <= byLabel["asan(rz=16)"].Footprint {
		t.Error("512-byte redzones should consume more arena")
	}
	if byLabel["asan(rz=512)"].Footprint < 2*byLabel["asan(rz=16)"].Footprint {
		t.Error("on small-object churn, 512-byte redzones should at least double the footprint")
	}
	if byLabel["giantsan(rz=16)"].Footprint > byLabel["asan(rz=16)"].Footprint {
		t.Error("GiantSan's footprint should match ASan's at the same redzone")
	}
	out := RenderRedzone(rows)
	if !strings.Contains(out, "HeapFootprint") {
		t.Error("render incomplete")
	}
	t.Logf("\n%s", out)
}

// TestQuarantineAblation quantifies the §5.4 quarantine-bypass window:
// detection holds at 100% with a budget exceeding the pressure, and
// collapses as the budget shrinks below it.
func TestQuarantineAblation(t *testing.T) {
	// 64-byte objects → 96-byte chunks; 100 allocations of pressure.
	rows, err := QuarantineAblation([]uint64{96, 960, 96 * 200}, 100, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows[2].Detected != rows[2].Total {
		t.Errorf("large budget: %d/%d detected, want all", rows[2].Detected, rows[2].Total)
	}
	// Tiny budget: the dangling chunk cycles between "recycled live"
	// (bypassed) and "freed again" (poisoned), so detection degrades to
	// roughly the duty cycle — well below complete.
	if rows[0].Detected > rows[0].Total*6/10 {
		t.Errorf("tiny budget: %d/%d detected, want substantial bypass", rows[0].Detected, rows[0].Total)
	}
	if !(rows[0].Detected <= rows[1].Detected && rows[1].Detected <= rows[2].Detected) {
		t.Errorf("detection not monotone in budget: %+v", rows)
	}
	t.Logf("\n%s", RenderQuarantine(rows))
}

func TestMedian(t *testing.T) {
	ds := []time.Duration{5, 1, 3}
	if median(ds) != 3 {
		t.Errorf("median = %v", median(ds))
	}
}
