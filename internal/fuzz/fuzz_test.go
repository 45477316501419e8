package fuzz

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"giantsan/internal/rt"
	"giantsan/internal/trace"
)

// TestGuidedCampaignDetectsAllClasses: the headline property — a guided
// campaign starting from clean seeds discovers a bug of every class well
// inside a modest budget. Everything is seeded, so this is deterministic,
// not a flaky statistical assertion.
func TestGuidedCampaignDetectsAllClasses(t *testing.T) {
	rep, err := Run(Config{Mode: Guided, SeedBase: 0, Budget: 4000, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range Classes() {
		if rep.Detected[cls] == 0 {
			t.Errorf("class %s undetected after %d executions", cls, rep.Executions)
		}
	}
	if rep.Executions >= 4000 {
		t.Errorf("budget exhausted (%d executions) — guided search regressed badly", rep.Executions)
	}
	if len(rep.Findings) != len(Classes()) {
		t.Fatalf("findings = %d, want %d", len(rep.Findings), len(Classes()))
	}
	for _, f := range rep.Findings {
		if !f.Detections["giantsan"] {
			t.Errorf("%s: giantsan leg did not confirm its own finding", f.Class)
		}
		if f.Program == "" || f.Kind == "" {
			t.Errorf("%s: incomplete finding: %+v", f.Class, f)
		}
	}
	if rep.VirtualNs == 0 {
		t.Error("virtual clock did not advance")
	}
}

// TestCampaignDeterministicAcrossParallel: byte-identical reports at
// -parallel 1 and -parallel 8 — the determinism contract. The schedule is
// serial, execution is pure, and results fold in index order, so worker
// count must be unobservable.
func TestCampaignDeterministicAcrossParallel(t *testing.T) {
	cfgs := []Config{
		{Mode: Guided, SeedBase: 7, Budget: 600, Batch: 32},
		{Mode: Blind, SeedBase: 7, Budget: 600, Batch: 32},
	}
	for _, cfg := range cfgs {
		c1, c8 := cfg, cfg
		c1.Parallel, c8.Parallel = 1, 8
		r1, err := Run(c1)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := Run(c8)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := json.Marshal(r1)
		b8, _ := json.Marshal(r8)
		if string(b1) != string(b8) {
			t.Errorf("%s: -parallel 1 and -parallel 8 reports differ:\n%s\n%s", cfg.Mode, b1, b8)
		}
	}
}

// TestCampaignArtifacts: findings persist as replayable artifacts — the
// shrunk trace reproduces the same bug class under an anchored replay
// (exactly what `gsan -replay` runs), and the corpus round-trips.
func TestCampaignArtifacts(t *testing.T) {
	dir := t.TempDir()
	artDir := filepath.Join(dir, "artifacts")
	corpusDir := filepath.Join(dir, "corpus")
	rep, err := Run(Config{
		Mode: Guided, SeedBase: 0, Budget: 4000, Batch: 32,
		ArtifactDir: artDir, CorpusDir: corpusDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	// Replay the artifacts on runtimes of a new pool, not the campaign's.
	fresh := &campaign{cfg: Config{HeapBytes: 4 << 20}, pool: rt.NewPool(1)}
	for _, f := range rep.Findings {
		if f.ArtifactTrace == "" || f.ArtifactMeta == "" || f.ArtifactProg == "" {
			t.Fatalf("%s: missing artifact paths: %+v", f.Class, f)
		}
		raw, err := os.ReadFile(f.ArtifactTrace)
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.ReadAll(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: artifact trace does not decode: %v", f.Class, err)
		}
		if got := fresh.replayClass(events); got != f.Class {
			t.Errorf("%s: shrunk trace replays as %q", f.Class, got)
		}
		if f.MinEvents > f.OriginalEvents {
			t.Errorf("%s: shrink grew the trace (%d -> %d)", f.Class, f.OriginalEvents, f.MinEvents)
		}
		var meta findingArtifactMeta
		blob, err := os.ReadFile(f.ArtifactMeta)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &meta); err != nil {
			t.Fatalf("%s: meta does not parse: %v", f.Class, err)
		}
		if meta.Class != f.Class || meta.Trace != filepath.Base(f.ArtifactTrace) {
			t.Errorf("%s: meta mismatch: %+v", f.Class, meta)
		}
	}
	// The persisted corpus must reload as valid programs.
	progs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) == 0 {
		t.Error("corpus dir empty after campaign")
	}
}

// TestValidateVacuous: a sweep that exercised no planted bug must say so.
func TestValidateVacuous(t *testing.T) {
	rep, err := Validate(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Vacuous() {
		t.Error("empty sweep not reported vacuous")
	}
	rep, err = Validate(20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vacuous() {
		t.Error("20-seed sweep exercised no planted bug — generator drifted?")
	}
	if len(rep.Failures) != 0 {
		t.Errorf("validation failures: %v", rep.Failures)
	}
}
