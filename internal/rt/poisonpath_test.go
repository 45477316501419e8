package rt

import (
	"math/rand"
	"testing"

	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// Metamorphic replay of the allocation metadata path: one seeded
// alloc/free trace — central mallocs, thread-cache mallocs with run
// refills, tcache-batched and central frees, quarantine evictions with
// free-list recycling, and whole-frame stack pushes — is driven through
// the fast and reference poisoner paths of the same sanitizer. The
// allocators are deterministic, so both runs see identical addresses, and
// the final shadow state and Stats must be byte-for-byte identical.

// driveAllocTrace replays the seeded trace on env and returns the number
// of operations performed.
func driveAllocTrace(t *testing.T, env *Env, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tc := env.Heap().NewTCache()
	tc.RefillAt = 8
	tc.FlushAt = 16
	classes := []uint64{24, 96, 256}
	var central, cached []vmem.Addr
	frames := 0
	ops := 0
	for i := 0; i < 5000; i++ {
		ops++
		switch op := rng.Intn(12); {
		case op < 3: // central malloc, irregular size
			p, err := env.Malloc(uint64(rng.Intn(600)))
			if err != nil {
				t.Fatalf("op %d: central malloc: %v", i, err)
			}
			central = append(central, p)
		case op < 6: // thread-cache malloc from a small set of size classes
			p, err := tc.Malloc(classes[rng.Intn(len(classes))])
			if err != nil {
				t.Fatalf("op %d: tcache malloc: %v", i, err)
			}
			cached = append(cached, p)
		case op < 8: // central free (drives the quarantine and evictions)
			if len(central) > 0 {
				j := rng.Intn(len(central))
				if err := env.Free(central[j]); err != nil {
					t.Fatalf("op %d: free: %v", i, err)
				}
				central = append(central[:j], central[j+1:]...)
			}
		case op < 10: // tcache free (pending batch, flushed at FlushAt)
			if len(cached) > 0 {
				j := rng.Intn(len(cached))
				if err := tc.Free(cached[j]); err != nil {
					t.Fatalf("op %d: tcache free: %v", i, err)
				}
				cached = append(cached[:j], cached[j+1:]...)
			}
		case op < 11: // whole-frame push with a mixed-size frame
			sizes := make([]uint64, 1+rng.Intn(4))
			for k := range sizes {
				sizes[k] = uint64(rng.Intn(130))
			}
			if _, err := env.Stack().PushLocals(sizes...); err != nil {
				t.Fatalf("op %d: push locals: %v", i, err)
			}
			frames++
		default: // pop, keeping a few frames resident
			if frames > 2 {
				env.PopFrame()
				frames--
			}
		}
	}
	if err := tc.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	for ; frames > 0; frames-- {
		env.PopFrame()
	}
	return ops
}

func TestMetamorphicAllocTraceFastVsReference(t *testing.T) {
	for _, kind := range []Kind{GiantSan, ASan} {
		for seed := int64(1); seed <= 3; seed++ {
			run := func(reference bool) *Env {
				env := New(Config{
					Kind:            kind,
					HeapBytes:       16 << 20,
					QuarantineBytes: 1 << 14, // small: forces evictions and recycling
					Reference:       reference,
				})
				driveAllocTrace(t, env, seed)
				return env
			}
			fast := run(false)
			ref := run(true)

			fsh := fast.San().(interface{ Shadow() *shadow.Memory }).Shadow()
			rsh := ref.San().(interface{ Shadow() *shadow.Memory }).Shadow()
			fs, rs := fsh.Snapshot(0, fsh.NumSegments()), rsh.Snapshot(0, rsh.NumSegments())
			for i := range fs {
				if fs[i] != rs[i] {
					t.Fatalf("%v seed %d: shadow diverged at segment %d: fast=%d ref=%d",
						kind, seed, i, fs[i], rs[i])
				}
			}
			if *fast.San().Stats() != *ref.San().Stats() {
				t.Fatalf("%v seed %d: sanitizer stats diverged:\nfast: %+v\nref:  %+v",
					kind, seed, *fast.San().Stats(), *ref.San().Stats())
			}
			if fast.Heap().Stats() != ref.Heap().Stats() {
				t.Fatalf("%v seed %d: allocator stats diverged:\nfast: %+v\nref:  %+v",
					kind, seed, fast.Heap().Stats(), ref.Heap().Stats())
			}
			// The trace must actually have exercised the batch machinery.
			hs := fast.Heap().Stats()
			if hs.TCacheRefills == 0 || hs.TCacheHits == 0 || hs.EvictionSweeps == 0 || hs.FreeListReuses == 0 {
				t.Fatalf("%v seed %d: trace did not cover the batch paths: %+v", kind, seed, hs)
			}
		}
	}
}
