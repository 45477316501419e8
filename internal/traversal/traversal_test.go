package traversal

import "testing"

func TestChecksumsAgreeAcrossModes(t *testing.T) {
	for _, p := range Patterns() {
		var sums []uint64
		for _, m := range Modes() {
			h, err := New(m, p, 4096)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, h.Traverse())
		}
		for i := 1; i < len(sums); i++ {
			if sums[i] != sums[0] {
				t.Errorf("%v: checksum differs between modes", p)
			}
		}
	}
}

func TestNoErrorsOnCleanTraversal(t *testing.T) {
	for _, p := range Patterns() {
		for _, m := range []Mode{GiantSan, ASan} {
			h, err := New(m, p, 8192)
			if err != nil {
				t.Fatal(err)
			}
			h.Traverse()
			if h.Stats().Errors != 0 {
				t.Errorf("%v/%v: %d errors on a clean traversal", m, p, h.Stats().Errors)
			}
		}
	}
}

// TestMetadataLoadAsymmetry verifies the §5.4 mechanism directly on the
// counters: forward GiantSan loads metadata O(log n) times; reverse loads
// exactly 2 per access, refilling the re-anchored cache on every access;
// ASan loads exactly once per access in either direction.
func TestMetadataLoadAsymmetry(t *testing.T) {
	const buf = 16384
	elems := uint64(buf / 4)

	fw, _ := New(GiantSan, Forward, buf)
	fw.Traverse()
	if loads := fw.Stats().ShadowLoads; loads > 64 {
		t.Errorf("forward GiantSan loads = %d, want O(log n)", loads)
	}

	rv, _ := New(GiantSan, Reverse, buf)
	rv.Traverse()
	if loads, refills := rv.Stats().ShadowLoads, rv.Stats().CacheRefills; loads != 2*elems || refills != elems {
		t.Errorf("reverse GiantSan loads = %d, refills = %d, want %d and %d", loads, refills, 2*elems, elems)
	}

	for _, p := range []Pattern{Forward, Reverse} {
		as, _ := New(ASan, p, buf)
		as.Traverse()
		if loads := as.Stats().ShadowLoads; loads != elems {
			t.Errorf("%v ASan loads = %d, want exactly %d", p, loads, elems)
		}
	}

	rd, _ := New(GiantSan, Random, buf)
	rd.Traverse()
	if loads := rd.Stats().ShadowLoads; loads > elems/4 {
		t.Errorf("random GiantSan loads = %d, want far fewer than %d", loads, elems)
	}
}

// TestMitigatedReverseLoadsFlat verifies the §5.4 mitigation: with the
// lower bound located up front, a reverse pass costs O(log² n) metadata
// loads instead of ≥ 2 per access.
func TestMitigatedReverseLoadsFlat(t *testing.T) {
	const buf = 16384
	h, err := New(GiantSanLB, Reverse, buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := h.Traverse()
	if loads := h.Stats().ShadowLoads; loads > 256 {
		t.Errorf("mitigated reverse loads = %d, want O(log² n)", loads)
	}
	// Same checksum as the unmitigated modes.
	h2, _ := New(GiantSan, Reverse, buf)
	if sum2 := h2.Traverse(); sum2 != sum {
		t.Error("mitigated traversal changed the data")
	}
	if h.Stats().Errors != 0 {
		t.Error("clean mitigated traversal reported errors")
	}
}

// TestFigure11Shape checks the ordering Figure 11 reports on the
// deterministic counters behind it: at 16KB GiantSan loads less metadata
// than ASan forward and random, and more in reverse. Wall time is not
// asserted, since tier-1 must not depend on host noise; `giantbench -exp
// fig11 -clock wall` shows the measured ordering.
func TestFigure11Shape(t *testing.T) {
	const buf = 16384
	loads := func(m Mode, p Pattern) uint64 {
		h, err := New(m, p, buf)
		if err != nil {
			t.Fatal(err)
		}
		h.Traverse()
		return h.Stats().ShadowLoads
	}
	for _, p := range []Pattern{Forward, Random} {
		if g, a := loads(GiantSan, p), loads(ASan, p); g >= a {
			t.Errorf("%v: GiantSan %d shadow loads vs ASan %d — GiantSan should load less", p, g, a)
		}
	}
	if g, a := loads(GiantSan, Reverse), loads(ASan, Reverse); g <= a {
		t.Errorf("reverse: GiantSan %d shadow loads vs ASan %d — GiantSan should load more", g, a)
	}
}
