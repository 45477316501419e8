package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"giantsan/internal/bench"
	"giantsan/internal/bench/fuzzbench"
	"giantsan/internal/bench/hotpath"
	"giantsan/internal/bench/metapath"
	"giantsan/internal/flaws"
)

// runRows executes rows with args, artifacts going to dir, and returns
// the exit code, stdout and stderr.
func runRows(t *testing.T, rows []experiment, dir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(rows, append(args, "-quiet"), dir, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// lookup returns the registry row called name.
func lookup(t *testing.T, name string) experiment {
	t.Helper()
	for _, r := range registry {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no registry row %q", name)
	return experiment{}
}

func TestRowNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, r := range registry {
		if seen[r.name] {
			t.Errorf("row name %q is duplicated or shadows -exp all", r.name)
		}
		seen[r.name] = true
		if r.run == nil || r.render == nil {
			t.Errorf("row %q lacks a run or a render", r.name)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	code, stdout, stderr := runRows(t, registry, t.TempDir(), "-exp", "tabel2")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("an unknown experiment printed %q", stdout)
	}
	for _, r := range registry {
		if !strings.Contains(stderr, r.name) {
			t.Errorf("usage error %q does not list row %q", stderr, r.name)
		}
	}
	if code, _, _ := runRows(t, registry, t.TempDir(), "-exp", "quarantine", "-clock", "bogus"); code != 2 {
		t.Errorf("-clock bogus: exit %d, want 2", code)
	}
}

// TestCheapRowsEndToEnd runs cheap rows through the real registry, as
// text and as JSON.
func TestCheapRowsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runRows(t, registry, dir, "-exp", "quarantine")
	if code != 0 {
		t.Fatalf("quarantine: exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "Quarantine-bypass study (§5.4)") || !strings.Contains(stdout, "Budget") {
		t.Errorf("quarantine text output:\n%s", stdout)
	}

	code, stdout, stderr = runRows(t, registry, dir, "-exp", "quarantine", "-json")
	if code != 0 {
		t.Fatalf("quarantine -json: exit %d: %s", code, stderr)
	}
	var rows []bench.QuarantineRow
	if err := json.Unmarshal([]byte(stdout), &rows); err != nil {
		t.Fatalf("quarantine -json: %v\n%s", err, stdout)
	}
	if len(rows) != len(quarantineBudgets) || rows[len(rows)-1].Detected != rows[len(rows)-1].Total {
		t.Errorf("quarantine -json rows: %+v", rows)
	}

	// Table 4's rows carry each scenario's program as a func, which the
	// report must leave out to encode.
	code, stdout, stderr = runRows(t, registry, dir, "-exp", "table4", "-json")
	if code != 0 {
		t.Fatalf("table4 -json: exit %d: %s", code, stderr)
	}
	var cves []flaws.Result
	if err := json.Unmarshal([]byte(stdout), &cves); err != nil || len(cves) == 0 || cves[0].CVE.ID == "" {
		t.Errorf("table4 -json: %v, %d rows", err, len(cves))
	}

	code, stdout, stderr = runRows(t, registry, dir, "-exp", "fig11", "-reps", "1")
	if code != 0 || !strings.HasPrefix(stdout, "Figure 11a") {
		t.Errorf("fig11: exit %d: %s\n%s", code, stderr, stdout)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rows without an artifact wrote %d files", len(entries))
	}
}

func TestArtifactWrittenToDir(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runRows(t, registry, dir, "-exp", "hotpath")
	if code != 0 {
		t.Fatalf("hotpath: exit %d: %s", code, stderr)
	}
	path := filepath.Join(dir, "BENCH_hotpath.json")
	if !strings.HasSuffix(stdout, "(written to "+path+")\n") {
		t.Errorf("hotpath output does not name %s:\n%s", path, stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep hotpath.Report
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Rows) == 0 {
		t.Errorf("BENCH_hotpath.json: %v, %d rows", err, len(rep.Rows))
	}
}

// load decodes a committed BENCH artifact: reports that pass their gates.
func load[R any](t *testing.T, name string) *R {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	rep := new(R)
	if err := json.Unmarshal(data, rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChecksHoldTheirFloors feeds each gated row a report exactly at its
// floor and one just below it. At the floor every gate passes; below it,
// -check must turn the report into exit 1, and a run without -check
// ignores the gate.
func TestChecksHoldTheirFloors(t *testing.T) {
	const below = 0.01
	cases := []struct {
		name string
		// report returns a committed report with its gated value set by
		// the floor offset d (0 at the floor, -below under it).
		report func(t *testing.T, d float64) any
	}{
		{"metapath", func(t *testing.T, d float64) any {
			rep := load[metapath.Report](t, "metapath")
			for _, ch := range metapath.Churns() {
				rep.Speedup["giantsan/"+ch.Name] = metapath.MinSpeedup
			}
			rep.Speedup["giantsan/fresh"] += d
			return rep
		}},
		{"fuzz", func(t *testing.T, d float64) any {
			rep := load[fuzzbench.Report](t, "fuzz")
			rep.Geomean = fuzzbench.MinGeomean + d
			return rep
		}},
		{"tiers", func(t *testing.T, d float64) any {
			rep := load[bench.TiersReport](t, "tiers")
			if d < 0 { // the cheapest rung no cheaper than the one above
				rep.Rows[len(rep.Rows)-1].NsPerSession = rep.Rows[len(rep.Rows)-2].NsPerSession
			}
			return rep
		}},
	}
	for _, c := range cases {
		for _, d := range []float64{0, -below} {
			row := lookup(t, c.name)
			rep := c.report(t, d)
			row.run = func(params) (any, error) { return rep, nil }
			rows := []experiment{row}
			want := 0
			if d < 0 {
				want = 1
			}
			code, _, stderr := runRows(t, rows, t.TempDir(), "-exp", c.name, "-check")
			if code != want {
				t.Errorf("%s at floor%+.2f with -check: exit %d, want %d: %s", c.name, d, code, want, stderr)
			}
			if code, _, stderr := runRows(t, rows, t.TempDir(), "-exp", c.name); code != 0 {
				t.Errorf("%s at floor%+.2f without -check: exit %d, want 0: %s", c.name, d, code, stderr)
			}
		}
	}
}

// TestCanaryFailsOnDiscrepancy: the canary enforces its verdict on every
// run, -check or not.
func TestCanaryFailsOnDiscrepancy(t *testing.T) {
	for _, rep := range []*bench.CanaryReport{
		{Programs: 1},
		{Programs: 1, Discrepancies: 1},
		{Programs: 1, Failures: 1},
	} {
		row := lookup(t, "canary")
		row.run = func(params) (any, error) { return rep, nil }
		want := 0
		if rep.Discrepancies+rep.Failures > 0 {
			want = 1
		}
		code, stdout, _ := runRows(t, []experiment{row}, t.TempDir(), "-exp", "canary")
		if code != want {
			t.Errorf("%+v: exit %d, want %d", rep, code, want)
		}
		if !strings.Contains(stdout, "discrepancies: ") {
			t.Errorf("the report is not printed before the verdict:\n%s", stdout)
		}
	}
	// -exp all never runs the canary.
	canary := lookup(t, "canary")
	canary.run = func(params) (any, error) {
		t.Error("-exp all ran the canary")
		return &bench.CanaryReport{}, nil
	}
	if code, _, _ := runRows(t, []experiment{canary}, t.TempDir(), "-exp", "all"); code != 2 {
		t.Errorf("-exp all over only the canary: exit %d, want 2 (nothing to run)", code)
	}
}
