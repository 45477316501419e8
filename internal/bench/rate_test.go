package bench

import (
	"testing"

	"giantsan/internal/workload"
)

func TestRateRun(t *testing.T) {
	w := workload.ByID("505.mcf_r")
	cfg := Configs()[1] // giantsan
	res, err := RateRun(w, cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Copies != 4 || res.Elapsed <= 0 || res.Throughput <= 0 {
		t.Errorf("RateResult = %+v", res)
	}
}

// TestRateScalesThroughput: concurrent copies are independent. Each copy
// owns its runtime, so each of four concurrent copies must reproduce the
// single copy's checksum, execution counters and sanitizer counters
// exactly; state shared between copies would perturb them. (Whether the
// copies also overlap in time depends on the host's idle cores, so it is
// not asserted.)
func TestRateScalesThroughput(t *testing.T) {
	w := workload.ByID("519.lbm_r")
	cfg := Configs()[1]
	one, err := RateRun(w, cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := RateRun(w, cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Results) != 1 || len(four.Results) != 4 {
		t.Fatalf("got %d and %d copy results, want 1 and 4", len(one.Results), len(four.Results))
	}
	want := one.Results[0]
	for i, got := range four.Results {
		if got.Checksum != want.Checksum || got.Stats != want.Stats || got.San != want.San {
			t.Errorf("copy %d of 4 diverges from the single copy:\n got  %#x %+v %+v\n want %#x %+v %+v",
				i, got.Checksum, got.Stats, got.San, want.Checksum, want.Stats, want.San)
		}
	}
}
