package rt_test

import (
	"testing"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/rt"
	"giantsan/internal/shadow"
	"giantsan/internal/workload"
)

// TestForkResidencyTracksDirtiedPages runs a real kernel on forked arenas
// of its own heap size and of 256 MiB. A fork's resident shadow follows
// the pages the kernel dirties, not the arena's capacity: the same page
// count at both sizes, exactly PageBytes per page, below what New would
// privatize up front, and nothing left after Reset.
func TestForkResidencyTracksDirtiedPages(t *testing.T) {
	w := workload.ByID("505.mcf_r")
	if w == nil {
		t.Fatal("workload 505.mcf_r missing")
	}
	dirtied := -1
	for _, heap := range []uint64{w.HeapBytes, 256 << 20} {
		env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: heap})
		ex, err := interp.Prepare(w.Build(1), instrument.GiantSanProfile, env)
		if err != nil {
			t.Fatalf("heap %d MiB: %v", heap>>20, err)
		}
		if res := ex.Run(); res.Errors.Total() != 0 {
			t.Fatalf("heap %d MiB: clean kernel reported %d errors", heap>>20, res.Errors.Total())
		}
		pages, bytes := env.OverlayStats()
		switch {
		case pages == 0:
			t.Fatalf("heap %d MiB: the run dirtied no shadow page", heap>>20)
		case dirtied >= 0 && pages != dirtied:
			t.Fatalf("heap %d MiB: %d dirty pages, %d at the kernel's own heap size", heap>>20, pages, dirtied)
		case bytes != pages*shadow.PageBytes:
			t.Fatalf("heap %d MiB: resident %d bytes != %d pages x %d", heap>>20, bytes, pages, shadow.PageBytes)
		case bytes >= env.ShadowBytes():
			t.Fatalf("heap %d MiB: resident %d bytes not below the dense shadow's %d", heap>>20, bytes, env.ShadowBytes())
		}
		dirtied = pages
		env.Reset()
		if pages, bytes := env.OverlayStats(); pages != 0 || bytes != 0 {
			t.Fatalf("heap %d MiB: %d pages (%d bytes) survive Reset", heap>>20, pages, bytes)
		}
	}
}
