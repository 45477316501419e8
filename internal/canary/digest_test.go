package canary

import (
	"testing"

	"giantsan/internal/rt"
)

// TestSanLegShadowDigestPinned pins the fast leg's shadow digest for a
// fixed recorded trace: FNV-64a over every shadow byte in segment order.
// The value was computed when the shadow still had a contiguous backing
// array, so it proves the paged read-out hashes the same bytes in the same
// order.
func TestSanLegShadowDigestPinned(t *testing.T) {
	const want = "1139fe2959be4f9d"
	cfg := Config{Kind: rt.GiantSan}.withDefaults()
	p, _ := programFor(5)
	events, err := RecordEvents(p, LegFor(cfg.Kind), cfg.HeapBytes)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := sanLeg(events, cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if obs.ShadowDigest != want {
		t.Fatalf("shadow digest over %d events = %s, want %s", len(events), obs.ShadowDigest, want)
	}
}
