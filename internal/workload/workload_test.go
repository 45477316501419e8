package workload

import (
	"testing"

	"giantsan/internal/canary"
	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/rt"
)

func TestAllWorkloadsListed(t *testing.T) {
	ws := All()
	if len(ws) != 24 {
		t.Fatalf("got %d workloads, want 24 (Table 2)", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.ID] {
			t.Errorf("duplicate workload %s", w.ID)
		}
		seen[w.ID] = true
		if w.Build == nil || w.HeapBytes == 0 {
			t.Errorf("%s incompletely defined", w.ID)
		}
	}
	for _, id := range []string{"505.mcf_r", "644.nab_s", "600.perlbench_s"} {
		if ByID(id) == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if ByID("999.bogus") != nil {
		t.Error("ByID should return nil for unknown IDs")
	}
}

// TestAllWorkloadsRunCleanEverySanitizer: every kernel must execute
// without memory errors under every sanitizer (the SPEC programs the paper
// measures are treated as clean at the default redzone), and compute the
// same checksum regardless of instrumentation.
func TestAllWorkloadsRunCleanEverySanitizer(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(1)
			var checksums []uint64
			for _, leg := range canary.Legs() {
				res, err := canary.Run(prog, leg, w.HeapBytes)
				if err != nil {
					t.Fatalf("%s: %v", leg.Name(), err)
				}
				if res.Errors.Total() != 0 {
					t.Fatalf("%s reported %d errors, first: %v",
						leg.Name(), res.Errors.Total(), res.Errors.Errors[0])
				}
				if res.Stats.Accesses == 0 {
					t.Fatalf("%s executed no accesses", leg.Name())
				}
				checksums = append(checksums, res.Checksum)
			}
			for i := 1; i < len(checksums); i++ {
				if checksums[i] != checksums[0] {
					t.Fatalf("checksum differs across configurations: %#x vs %#x", checksums[i], checksums[0])
				}
			}
		})
	}
}

// TestWorkloadScaleGrows: scale 2 does at least 1.5x the accesses of
// scale 1 for a sample of kernels.
func TestWorkloadScaleGrows(t *testing.T) {
	for _, id := range []string{"505.mcf_r", "500.perlbench_r", "557.xz_r"} {
		w := ByID(id)
		counts := make([]uint64, 0, 2)
		for _, scale := range []int{1, 2} {
			env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: w.HeapBytes})
			ex, err := interp.Prepare(w.Build(scale), instrument.Native, env)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, ex.Run().Stats.Accesses)
		}
		if float64(counts[1]) < 1.5*float64(counts[0]) {
			t.Errorf("%s: scale 2 accesses %d vs scale 1 %d", id, counts[1], counts[0])
		}
	}
}

// TestOptimizationMixDiffers: the kernels must span the Figure 10 space —
// mcf/namd/lbm mostly eliminated, perlbench/xalancbmk mostly cached.
func TestOptimizationMixDiffers(t *testing.T) {
	share := func(id string) (elim, cached float64) {
		w := ByID(id)
		env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: w.HeapBytes})
		ex, err := interp.Prepare(w.Build(1), instrument.GiantSanProfile, env)
		if err != nil {
			t.Fatal(err)
		}
		res := ex.Run()
		total := float64(res.Stats.Accesses)
		return float64(res.Stats.Eliminated) / total, float64(res.Stats.Cached) / total
	}
	for _, id := range []string{"505.mcf_r", "508.namd_r", "519.lbm_r"} {
		elim, _ := share(id)
		if elim < 0.8 {
			t.Errorf("%s: eliminated share %.2f, want > 0.8 (Figure 10)", id, elim)
		}
	}
	for _, id := range []string{"500.perlbench_r", "523.xalancbmk_r"} {
		elim, cached := share(id)
		if cached < 0.4 {
			t.Errorf("%s: cached share %.2f, want ≥ 0.4 (interpreter dispatch)", id, cached)
		}
		if elim > cached {
			t.Errorf("%s: eliminated %.2f should not dominate cached %.2f", id, elim, cached)
		}
	}
}
