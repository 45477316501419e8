package bench

import (
	"reflect"
	"testing"
)

// TestTierLadderResolution pins the ladder shape and the label registry
// the service layer depends on.
func TestTierLadderResolution(t *testing.T) {
	tiers := Tiers()
	wantOrder := []string{"full", "elim", "cheap", "sampled"}
	if len(tiers) != len(wantOrder) {
		t.Fatalf("ladder has %d rungs, want %d", len(tiers), len(wantOrder))
	}
	for i, tr := range tiers {
		if tr.Name != wantOrder[i] {
			t.Fatalf("rung %d = %q, want %q", i, tr.Name, wantOrder[i])
		}
		if TierByName(tr.Name) == nil {
			t.Fatalf("TierByName(%q) = nil", tr.Name)
		}
		if ConfigByLabel(tr.Config.Label) == nil {
			t.Fatalf("ConfigByLabel(%q) = nil; tier sanitizers must be resolvable", tr.Config.Label)
		}
	}
	if TierByName("turbo") != nil {
		t.Fatal("unknown tier resolved")
	}
	// Every Table 2 column stays resolvable too.
	for _, c := range Configs() {
		if ConfigByLabel(c.Label) == nil {
			t.Fatalf("ConfigByLabel(%q) = nil", c.Label)
		}
	}
	if SampledConfig(8).Profile.SampleRate != 8 {
		t.Fatal("SampledConfig(8) lost its rate")
	}
}

// TestTiersMonotoneCostAndDetection is the committed-artifact contract:
// virtual cost strictly decreases down the ladder while detection only
// ever decreases, and the cheapest tier still detects. This is the same
// gate `giantbench -exp tiers -check` applies in CI.
func TestTiersMonotoneCostAndDetection(t *testing.T) {
	seeds := 60
	if raceEnabled {
		// The race build only needs to exercise the concurrent run paths;
		// the full 60-seed statistics are gated without -race by CI's
		// `giantbench -exp tiers -check`.
		seeds = 16
	}
	rep, err := TiersRun(seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMonotone(rep); err != nil {
		t.Fatal(err)
	}
	// The top three rungs are detection-preserving: full coverage on the
	// whole planted-bug corpus. Only the sampled rung may miss.
	for _, row := range rep.Rows[:3] {
		if row.Detected != row.CorpusCases {
			t.Fatalf("tier %s missed %d/%d planted bugs; only the sampled tier may miss",
				row.Tier, row.CorpusCases-row.Detected, row.CorpusCases)
		}
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last.Tier != "sampled" || last.CheckShare >= 0.5 {
		t.Fatalf("sampled tier checkShare = %.3f, want < 0.5 (rate %d)", last.CheckShare, DefaultSampleRate)
	}
}

// TestTiersDeterministicAcrossParallel: the sampled gate keys on the
// session-local access index and every matrix item owns its runtime, so
// the whole report — including which corpus bugs the sampled tier hits —
// is identical at -parallel 1 and -parallel 8.
func TestTiersDeterministicAcrossParallel(t *testing.T) {
	seeds := 30
	if raceEnabled {
		seeds = 10
	}
	serial, err := TiersRun(seeds, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := TiersRun(seeds, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("tiers report diverged across parallelism:\nserial %+v\nwide   %+v", serial, wide)
	}
}
