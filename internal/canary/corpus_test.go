package canary

import (
	"testing"

	"giantsan/internal/progen"
	"giantsan/internal/rt"
)

// corpusSeeds: the full 60-seed progen.Buggy corpus normally; the race
// detector shrinks the range per kind (every error class still appears).
func corpusSeeds() int64 {
	if raceEnabled {
		return 20
	}
	return 60
}

// TestCorpusThreeWayAgreement: for every poolable sanitizer, replay the
// full progen.Buggy corpus through the canary's three legs. Fast and
// reference must be observably identical (verdict, reports, stats,
// shadow), and the sanitizer's verdict must agree with the byte-granular
// oracle: the planted bug is either seen by both or by neither (a seed
// whose bad access the recorder could not express is clean in the trace,
// and must then be clean for all legs).
func TestCorpusThreeWayAgreement(t *testing.T) {
	for _, kind := range []rt.Kind{rt.GiantSan, rt.ASan, rt.ASanMinus} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Kind: kind}.withDefaults()
			detected := 0
			for seed := int64(0); seed < corpusSeeds(); seed++ {
				p, ok := progen.Buggy(seed)
				if !ok {
					continue
				}
				events, err := RecordEvents(p, LegFor(kind), cfg.HeapBytes)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				fast, ref, orc, err := TripleReplay(events, cfg, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if d := Diff(fast, ref, orc); d != nil {
					t.Fatalf("seed %d: %v", seed, d)
				}
				if fast.ErrorTotal > 0 {
					detected++
				}
			}
			if detected == 0 {
				t.Fatal("no corpus seed produced a detection — the agreement is vacuous")
			}
		})
	}
}
