package canary

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"giantsan/internal/rt"
	"giantsan/internal/trace"
)

// canarySeeds is how many wheel seeds the differential tests scan; the
// race detector shrinks the range (every plant still triggers within it).
func canarySeeds() int64 {
	if raceEnabled {
		return 30
	}
	return 60
}

// TestCleanFastPathNoDiscrepancies: with no plant, the honest fast path
// must agree with the reference path and the oracle on every wheel seed —
// the canary's steady-state property.
func TestCleanFastPathNoDiscrepancies(t *testing.T) {
	c, err := New(Config{Kind: rt.GiantSan})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < canarySeeds(); seed++ {
		res, err := c.RunSeed(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Divergence != nil {
			t.Fatalf("seed %d (%s): spurious divergence: %v", seed, res.PlantedBug, res.Divergence)
		}
		if res.Events == 0 {
			t.Fatalf("seed %d: empty trace recorded", seed)
		}
	}
	snap := c.Snapshot()
	if snap.Runs != uint64(canarySeeds()) || snap.Discrepancies != 0 || snap.Failures != 0 {
		t.Fatalf("counters: %+v", snap)
	}
}

// findDivergentSeed scans the wheel for the first seed on which the
// plant triggers.
func findDivergentSeed(t *testing.T, c *Canary, max int64) *Result {
	t.Helper()
	for seed := int64(0); seed < max; seed++ {
		res, err := c.RunSeed(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Divergence != nil {
			return res
		}
	}
	t.Fatalf("plant %q produced no divergence in %d seeds", c.cfg.Plant, max)
	return nil
}

// TestPlantedDivergenceShrinksToOneMinimal: for every plant, the canary
// must detect the divergence, and the shrunk trace must (a) still
// reproduce the same divergence kind, (b) be 1-minimal — removing any
// single event loses the repro — and (c) be much smaller than the
// original.
func TestPlantedDivergenceShrinksToOneMinimal(t *testing.T) {
	wantKind := map[string]string{
		"mask-width8":   "verdict",
		"phantom-mod64": "verdict",
		"stats-drift":   "stats",
	}
	for _, name := range PlantNames() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Kind: rt.GiantSan, Plant: name}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := findDivergentSeed(t, c, canarySeeds())
			if res.Divergence.Kind != wantKind[name] {
				t.Errorf("divergence kind %q, want %q (%s)", res.Divergence.Kind, wantKind[name], res.Divergence)
			}
			if !res.OneMinimal {
				t.Fatalf("shrink did not reach 1-minimality (%d tests)", res.ShrinkReplays)
			}
			if res.MinEvents >= res.Events {
				t.Errorf("no reduction: %d -> %d events", res.Events, res.MinEvents)
			}

			// The predicate the shrinker used, reconstructed independently.
			reproduces := func(cand []trace.Event) bool {
				f, r, o, rerr := c.TripleReplay(cand)
				if rerr != nil {
					return false
				}
				d := Diff(f, r, o)
				return d != nil && d.Kind == res.Divergence.Kind
			}
			if !reproduces(res.MinTrace) {
				t.Fatal("shrunk trace does not reproduce the divergence")
			}
			for i := range res.MinTrace {
				drop := append(append([]trace.Event{}, res.MinTrace[:i]...), res.MinTrace[i+1:]...)
				if reproduces(drop) {
					t.Fatalf("removing event %d/%d keeps the repro — not 1-minimal", i+1, res.MinEvents)
				}
			}
		})
	}
}

// TestArtifactPersistedAndReplayable: on divergence the canary writes a
// trace + JSON pair; the trace must decode and replay (under the fast
// leg with the plant) to the recorded divergence, and the JSON must
// describe it.
func TestArtifactPersistedAndReplayable(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Kind: rt.GiantSan, Plant: "mask-width8", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := findDivergentSeed(t, c, canarySeeds())
	if res.ArtifactTrace == "" || res.ArtifactMeta == "" {
		t.Fatalf("no artifact paths on %+v", res)
	}

	blob, err := os.ReadFile(res.ArtifactTrace)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadAll(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("artifact trace does not decode: %v", err)
	}
	if len(events) != res.MinEvents {
		t.Fatalf("artifact has %d events, result says %d", len(events), res.MinEvents)
	}
	fast, ref, orc, err := c.TripleReplay(events)
	if err != nil {
		t.Fatalf("artifact trace does not replay: %v", err)
	}
	d := Diff(fast, ref, orc)
	if d == nil || d.Kind != res.Divergence.Kind {
		t.Fatalf("artifact replay divergence = %v, want kind %q", d, res.Divergence.Kind)
	}

	var meta artifactMeta
	mb, err := os.ReadFile(res.ArtifactMeta)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		t.Fatalf("artifact meta does not parse: %v", err)
	}
	if meta.Seed != res.Seed || meta.Plant != "mask-width8" || meta.Divergence == nil ||
		meta.Divergence.Kind != res.Divergence.Kind || !meta.OneMinimal {
		t.Fatalf("artifact meta %+v does not describe the divergence", meta)
	}
	if meta.Trace != filepath.Base(res.ArtifactTrace) {
		t.Fatalf("meta names trace %q, artifact is %q", meta.Trace, res.ArtifactTrace)
	}
	if got := c.Snapshot(); got.ArtifactsWritten == 0 || got.MinReproEvents != uint64(res.MinEvents) {
		t.Fatalf("counters: %+v", got)
	}
}

// TestRunSeedDeterministic: the same seed yields the same observations
// and divergence byte-for-byte — what makes parallel campaigns mergeable.
func TestRunSeedDeterministic(t *testing.T) {
	for _, plant := range []string{"", "mask-width8"} {
		a, _ := New(Config{Kind: rt.GiantSan, Plant: plant})
		b, _ := New(Config{Kind: rt.GiantSan, Plant: plant})
		for seed := int64(0); seed < 10; seed++ {
			ra, ea := a.RunSeed(seed)
			rb, eb := b.RunSeed(seed)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("plant %q seed %d: errors differ: %v vs %v", plant, seed, ea, eb)
			}
			ja, _ := json.Marshal(ra)
			jb, _ := json.Marshal(rb)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("plant %q seed %d:\n%s\n%s", plant, seed, ja, jb)
			}
		}
	}
}

// TestPlantNames: the registry is stable and rejects unknowns with a
// helpful error.
func TestPlantNames(t *testing.T) {
	if _, err := PlantByName("no-such-plant"); err == nil {
		t.Fatal("unknown plant accepted")
	}
	if p, err := PlantByName(""); p != nil || err != nil {
		t.Fatalf("empty plant = %v, %v", p, err)
	}
	for _, n := range PlantNames() {
		p, err := PlantByName(n)
		if err != nil || p.Name() != n {
			t.Fatalf("plant %q: %v %v", n, p, err)
		}
	}
}
