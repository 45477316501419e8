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
	c, err := New(Config{Kind: rt.GiantSan})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := programFor(5)
	events, err := c.record(p)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := sanLeg(events, c.cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if obs.ShadowDigest != want {
		t.Fatalf("shadow digest over %d events = %s, want %s", len(events), obs.ShadowDigest, want)
	}
}
