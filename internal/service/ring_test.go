package service

import (
	"fmt"
	"testing"
)

// TestRingEmptyAndSingle pins the degenerate cases the federation router
// leans on: an empty ring routes nowhere (-1), a one-member ring routes
// everything to it.
func TestRingEmptyAndSingle(t *testing.T) {
	if got := buildRing(nil).lookup("anything"); got != -1 {
		t.Fatalf("empty ring lookup = %d, want -1", got)
	}
	one := buildRing([]string{"only"})
	for i := 0; i < 32; i++ {
		if got := one.lookup(fmt.Sprintf("key-%d", i)); got != 0 {
			t.Fatalf("single-member ring lookup = %d, want 0", got)
		}
	}
}

// TestRingMemberNameStability is the property federation's ejection and
// re-ring depend on: removing one member moves ONLY the keys that were on
// it — every other key keeps its placement, because vnode positions are
// derived from member names, not indexes.
func TestRingMemberNameStability(t *testing.T) {
	full := []string{"b0", "b1", "b2", "b3"}
	without := []string{"b0", "b1", "b3"} // b2 ejected; b3 keeps its name and index shifts
	rFull := buildRing(full)
	rLess := buildRing(without)

	const keys = 1000
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("tenant-%d", i)
		beforeName := full[rFull.lookup(k)]
		afterName := without[rLess.lookup(k)]
		if beforeName == "b2" {
			moved++
			if afterName == "b2" {
				t.Fatalf("key %s still on the removed member", k)
			}
			continue
		}
		if afterName != beforeName {
			t.Fatalf("key %s moved %s -> %s though its member survived", k, beforeName, afterName)
		}
	}
	// ~1/4 of the keys lived on the removed member.
	if moved == 0 || moved > keys/2 {
		t.Fatalf("removal moved %d/%d keys, expected ~1/4", moved, keys)
	}
}

// TestShardRoutingIsDeterministicAndSpread pins the ring a federation
// shards tenants over: the same tenant always lands on the same member,
// also on a ring rebuilt from the same names, and a tenant population
// spreads evenly. On rings of 2, 4 and 8 members every member holds some
// of 1000 tenants and none holds more than 1.5/N of them, so one backend
// never carries a disproportionate share of the load.
func TestShardRoutingIsDeterministicAndSpread(t *testing.T) {
	const keys = 1000
	for _, n := range []int{2, 4, 8} {
		var names []string
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("b%d", i))
		}
		r, rebuilt := buildRing(names), buildRing(names)
		seen := make(map[int]int)
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("tenant-%d", i)
			m := r.lookup(key)
			if again := r.lookup(key); again != m {
				t.Fatalf("key %q routed to %d then %d", key, m, again)
			}
			if other := rebuilt.lookup(key); other != m {
				t.Fatalf("key %q routed to %d, then %d on a rebuilt ring", key, m, other)
			}
			if m < 0 || m >= n {
				t.Fatalf("key %q routed to out-of-range member %d", key, m)
			}
			seen[m]++
		}
		if len(seen) != n {
			t.Fatalf("%d tenants covered only %d of %d members: %v", keys, len(seen), n, seen)
		}
		for m, c := range seen {
			if float64(c) > 1.5*keys/float64(n) {
				t.Errorf("%d members: member %d holds %d of %d tenants (%.2f/N), over 1.5/N", n, m, c, keys, float64(c)*float64(n)/keys)
			}
		}
	}
}

// TestShardRoutingIsConsistentAcrossResize is the consistent-hashing
// property on growth: adding a fifth member to four remaps only a
// minority of keys (expected ~1/5; hash-mod-N would remap ~4/5), and
// every key that moves, moves to the joiner.
func TestShardRoutingIsConsistentAcrossResize(t *testing.T) {
	four := []string{"b0", "b1", "b2", "b3"}
	five := []string{"b0", "b1", "b2", "b3", "b4"}
	a, b := buildRing(four), buildRing(five)
	const keys = 1000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		before, after := four[a.lookup(key)], five[b.lookup(key)]
		if before == after {
			continue
		}
		moved++
		if after != "b4" {
			t.Fatalf("key %s moved %s -> %s, not to the joining member", key, before, after)
		}
	}
	// Allow generous slack over the expected 1/5 before calling it broken.
	if moved == 0 || moved > keys/2 {
		t.Fatalf("resize 4->5 moved %d/%d keys; consistent hashing should move ~1/5", moved, keys)
	}
}
