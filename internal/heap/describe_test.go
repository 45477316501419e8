package heap

import (
	"math/rand"
	"strings"
	"testing"

	"giantsan/internal/vmem"
)

func TestLocateInside(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	p, _ := a.MallocLabeled(100, "packet")
	ci, ok := a.Locate(p+50, 0)
	if !ok {
		t.Fatal("Locate failed inside chunk")
	}
	if ci.UserBase != p || ci.UserSize != 100 || ci.Offset != 50 || ci.State != "live" || ci.Label != "packet" {
		t.Errorf("ci = %+v", ci)
	}
	if !strings.Contains(ci.String(), "50 bytes inside of 100-byte region") {
		t.Errorf("String = %q", ci.String())
	}
	if !strings.Contains(ci.String(), "packet") {
		t.Errorf("label missing: %q", ci.String())
	}
}

func TestLocateRedzones(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	p, _ := a.Malloc(64)
	right, ok := a.Locate(p+68, 0)
	if !ok || !strings.Contains(right.Relation(), "4 bytes to the right of") {
		t.Errorf("right: %v %v", right.Relation(), ok)
	}
	left, ok := a.Locate(p-4, 0)
	if !ok || !strings.Contains(left.Relation(), "4 bytes to the left of") {
		t.Errorf("left: %v %v", left.Relation(), ok)
	}
}

func TestLocateFreedAndSlack(t *testing.T) {
	a, _, _ := newHeap(t, Config{})
	p, _ := a.Malloc(64)
	a.Free(p)
	ci, ok := a.Locate(p, 0)
	if !ok || ci.State != "quarantined" {
		t.Errorf("ci = %+v, ok=%v", ci, ok)
	}
	if !strings.Contains(ci.String(), "(quarantined)") {
		t.Errorf("String = %q", ci.String())
	}
	// Far away: not found without slack, found with it.
	far := p + 4096
	if _, ok := a.Locate(far, 0); ok {
		t.Error("far address located without slack")
	}
	if _, ok := a.Locate(far, 1<<20); !ok {
		t.Error("far address not located with slack")
	}
}

func TestLocateEmptyHeap(t *testing.T) {
	sp := vmem.NewSpace(1 << 16)
	a := New(sp, newRecPoisoner(sp), Config{})
	if _, ok := a.Locate(sp.Base(), 1<<20); ok {
		t.Error("Locate on empty heap should fail")
	}
}

// TestLocateMatchesLinearWalk is the differential test of Locate's slab
// search against the registry walk it replaced. A seeded mix of central
// and thread-cache allocations and frees — quarantine eviction, free-list
// reuse, reserved thread-cache runs never registered, and Resets — is
// probed after every operation at random addresses around the heap
// (below its start, inside and between chunks, past the bump frontier)
// under three slacks.
func TestLocateMatchesLinearWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// No oracle: Reset leaves ground truth to its owner (rt.Env).
		sp := vmem.NewSpace(1 << 20)
		a := New(sp, newRecPoisoner(sp), Config{QuarantineBytes: 600})
		tc := a.NewTCache()
		tc.RefillAt, tc.FlushAt = 6, 4
		var live, cached []vmem.Addr
		var seen AllocStats // what the mix exercised, summed across Resets
		resets := 0
		tally := func() {
			st := a.Stats()
			seen.QuarantinePops += st.QuarantinePops
			seen.FreeListReuses += st.FreeListReuses
			seen.TCacheRefills += st.TCacheRefills
		}
		for op := 0; op < 1500; op++ {
			switch k := rng.Intn(20); {
			case k < 7:
				if p, err := a.MallocLabeled(uint64(1+rng.Intn(120)), "c"); err == nil {
					live = append(live, p)
				}
			case k < 11:
				if p, err := tc.Malloc([]uint64{16, 40, 100}[rng.Intn(3)]); err == nil {
					cached = append(cached, p)
				}
			case k < 15 && len(live) > 0:
				j := rng.Intn(len(live))
				a.Free(live[j])
				live = append(live[:j], live[j+1:]...)
			case k < 18 && len(cached) > 0:
				j := rng.Intn(len(cached))
				tc.Free(cached[j])
				cached = append(cached[:j], cached[j+1:]...)
			case k == 19 && rng.Intn(8) == 0:
				// Reset must not run under a live thread cache: flush it
				// and start a new one afterwards.
				tc.Flush()
				tally()
				a.Reset()
				resets++
				live, cached = nil, nil
				tc = a.NewTCache()
				tc.RefillAt, tc.FlushAt = 6, 4
			}
			lo := a.start - 64
			span := int64(a.bump-lo) + 256
			for probe := 0; probe < 8; probe++ {
				addr := lo + vmem.Addr(rng.Int63n(span))
				for _, slack := range []uint64{0, 16, 1 << 16} {
					got, gotOK := a.Locate(addr, slack)
					want, wantOK := a.locateLinear(addr, slack)
					if got != want || gotOK != wantOK {
						t.Fatalf("seed %d op %d: Locate(%#x, %d) = %+v, %v; linear walk %+v, %v",
							seed, op, addr, slack, got, gotOK, want, wantOK)
					}
				}
			}
		}
		tally()
		if resets == 0 || seen.QuarantinePops == 0 || seen.FreeListReuses == 0 || seen.TCacheRefills == 0 {
			t.Fatalf("seed %d: the mix missed a path: %d resets, %+v", seed, resets, seen)
		}
	}
}
