package rt

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"giantsan/internal/asan"
	"giantsan/internal/core"
	"giantsan/internal/oracle"
	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// resetConfigs enumerates every pooled-arena configuration the service
// layer can recycle: all shadow sanitizer kinds, both code paths, both
// UAR modes. Oracles stay on so ground truth is part of the comparison.
func resetConfigs() []Config {
	var cfgs []Config
	for _, kind := range []Kind{GiantSan, ASan, ASanMinus} {
		for _, ref := range []bool{false, true} {
			for _, uar := range []bool{false, true} {
				cfgs = append(cfgs, Config{
					Kind: kind, Reference: ref, DetectUAR: uar,
					HeapBytes: 256 << 10, StackBytes: 64 << 10,
					QuarantineBytes: 4 << 10, // tiny: forces eviction churn
					WithOracle:      true,
				})
			}
		}
	}
	return cfgs
}

// envShadow digs the shadow array out of an Env for byte comparison.
func envShadow(t *testing.T, e *Env) *shadow.Memory {
	t.Helper()
	switch s := e.San().(type) {
	case *core.Sanitizer:
		return s.Shadow()
	case *asan.Sanitizer:
		return s.Shadow()
	}
	t.Fatalf("no shadow accessor for sanitizer %s", e.San().Name())
	return nil
}

// dirty exercises every state-bearing layer of the env — heap (including
// quarantine eviction and free-list reuse), stack (deep frames, batched
// frames, after-return poison), globals, shadow errors from bad accesses,
// double frees, and the oracle — and returns a deterministic digest of
// the observable outcomes so two runs can be compared.
func dirty(t *testing.T, e *Env) string {
	t.Helper()
	var out bytes.Buffer
	record := func(err *report.Error) {
		if err != nil {
			fmt.Fprintf(&out, "%v;%v;", err.Kind, err.Access)
		} else {
			out.WriteString("ok;")
		}
	}

	// Heap churn: enough frees to overflow the tiny quarantine budget so
	// eviction sweeps and free-list reuse both run.
	var ptrs []vmem.Addr
	for i := 0; i < 64; i++ {
		p, err := e.Malloc(uint64(8 + 13*i))
		if err != nil {
			t.Fatalf("malloc: %v", err)
		}
		e.Space().Memset(p, byte(i+1), uint64(8+13*i))
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if i%3 != 0 {
			record(e.Free(p))
		}
	}
	// Double free and invalid free: exercises the report path.
	record(e.Free(ptrs[1]))
	record(e.Free(ptrs[0] + 4))
	// Use-after-free and overflow checks: exercises the error counters.
	record(e.San().CheckAccess(ptrs[1], 8, report.Read))
	record(e.San().CheckAccess(ptrs[0], uint64(8+0*13), report.Write))
	record(e.San().CheckRange(ptrs[0], ptrs[0]+64, report.Read))

	// Stack: nested frames, a batched frame, and popped-frame poison.
	e.PushFrame()
	a := alloca(t, e, 40)
	e.Space().Memset(a, 0xAA, 40)
	e.PushFrame()
	b := alloca(t, e, 100)
	record(e.San().CheckAccess(b, 8, report.Write))
	record(e.San().CheckAccess(b+100, 1, report.Write)) // redzone
	e.PopFrame()
	record(e.San().CheckAccess(b, 8, report.Read)) // UAR when enabled
	e.PopFrame()
	bases, err := e.Stack().PushLocals(8, 24, 0, 177)
	if err != nil {
		t.Fatalf("push locals: %v", err)
	}
	record(e.San().CheckAccess(bases[3], 8, report.Read))
	e.PopFrame()

	// Globals.
	g, err := e.Global(50)
	if err != nil {
		t.Fatalf("global: %v", err)
	}
	e.Space().Memset(g, 0x5C, 50)
	record(e.San().CheckAccess(g+48, 8, report.Read)) // partial-tail overflow

	fmt.Fprintf(&out, "stats:%+v", *e.San().Stats())
	return out.String()
}

// churn is the allocation-churn input of the reset and fork suites: the
// malloc/free/frame traffic of an allocation-heavy session, through enough
// frees that the tiny quarantine evicts and the free lists recycle. It
// returns every address the env handed out, the quarantine length after
// every free, the allocator counters and a digest of the final shadow, so
// two runs agree only if they reuse chunks in the same order.
func churn(t *testing.T, e *Env) string {
	t.Helper()
	var out bytes.Buffer
	base := e.Space().Base()
	var live []vmem.Addr
	for i := 0; i < 600; i++ {
		p, err := e.Malloc(uint64(1 + (i*37)%96))
		if err != nil {
			t.Fatalf("malloc %d: %v", i, err)
		}
		live = append(live, p)
		fmt.Fprintf(&out, "m%#x;", p-base)
		if i%3 == 2 {
			// Free an older chunk, then a frame of locals that the next
			// call frame recycles.
			j := (i * 7) % len(live)
			if err := e.Free(live[j]); err != nil {
				t.Fatalf("free %d: %v", i, err)
			}
			live = append(live[:j], live[j+1:]...)
			fmt.Fprintf(&out, "q%d;", e.Heap().QuarantineLen())
			e.PushFrame()
			for k := 0; k < 3; k++ {
				fmt.Fprintf(&out, "s%#x;", alloca(t, e, uint64(8+(i+k)%40))-base)
			}
			e.PopFrame()
		}
	}
	sh := envShadow(t, e)
	h := fnv.New64a()
	h.Write(sh.Snapshot(0, sh.NumSegments()))
	fmt.Fprintf(&out, "heap:%+v;shadow:%x", e.Heap().Stats(), h.Sum64())
	return out.String()
}

// TestResetMatchesFresh is the pooling-safety contract: a recycled arena
// must be byte-for-byte equivalent to a freshly built one — same shadow
// image, same (zeroed) application bytes, same oracle ground truth, Stats
// zeroed — and must behave identically on the next workload. Without
// this, the service arena pool could leak one tenant's poison, data, or
// counters into the next tenant's session.
func TestResetMatchesFresh(t *testing.T) {
	for _, cfg := range resetConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/ref=%v/uar=%v", cfg.Kind, cfg.Reference, cfg.DetectUAR)
		t.Run(name, func(t *testing.T) {
			fresh := New(cfg)
			recycled := New(cfg)
			dirty(t, recycled)
			recycled.Reset()

			// Structural equivalence: shadow, application bytes, stats.
			fs, rs := envShadow(t, fresh), envShadow(t, recycled)
			if !bytes.Equal(fs.Snapshot(0, fs.NumSegments()), rs.Snapshot(0, rs.NumSegments())) {
				t.Fatal("recycled shadow differs from fresh shadow")
			}
			fb := fresh.Space().Bytes(fresh.Space().Base(), fresh.Space().Size())
			rb := recycled.Space().Bytes(recycled.Space().Base(), recycled.Space().Size())
			if !bytes.Equal(fb, rb) {
				t.Fatal("recycled space bytes differ from fresh space bytes")
			}
			if got := *recycled.San().Stats(); got != (san.Stats{}) {
				t.Fatalf("recycled stats not zeroed: %+v", got)
			}
			if rp, ok := recycled.San().(san.ReferencePath); ok && rp.Reference() != cfg.Reference {
				t.Fatalf("reference path flipped by reset: got %v", rp.Reference())
			}

			// Oracle ground truth: every byte back to Unallocated.
			base, size := recycled.Space().Base(), recycled.Space().Size()
			for off := uint64(0); off < size; off += 1 + off/97 {
				if st := recycled.Oracle().StateAt(base + off); st != oracle.Unallocated {
					t.Fatalf("oracle state at +%d = %v after reset, want Unallocated", off, st)
				}
			}

			// Behavioral equivalence: the same workload on the recycled env
			// must produce the identical outcome digest, error for error and
			// counter for counter, as on the never-used env.
			want := dirty(t, fresh)
			got := dirty(t, recycled)
			if want != got {
				t.Fatalf("recycled env diverges from fresh env:\nfresh:    %s\nrecycled: %s", want, got)
			}
			fs, rs = envShadow(t, fresh), envShadow(t, recycled)
			if !bytes.Equal(fs.Snapshot(0, fs.NumSegments()), rs.Snapshot(0, rs.NumSegments())) {
				t.Fatal("shadow images diverge after identical post-reset workloads")
			}

			// The churn input on a reset arena, twice, against a fresh fork.
			want = churn(t, Fork(cfg))
			for i := 0; i < 2; i++ {
				recycled.Reset()
				if got := churn(t, recycled); got != want {
					t.Fatalf("churn %d on the recycled env diverges from a fresh fork:\nfork:     %s\nrecycled: %s", i, want, got)
				}
			}
		})
	}
}

// requireEnvEqual asserts two Envs are structurally identical: same shadow
// bytes, same application bytes, zero-diff stats.
func requireEnvEqual(t *testing.T, want, got *Env, context string) {
	t.Helper()
	ws, gs := envShadow(t, want), envShadow(t, got)
	if !bytes.Equal(ws.Snapshot(0, ws.NumSegments()), gs.Snapshot(0, gs.NumSegments())) {
		t.Fatalf("%s: shadow bytes differ", context)
	}
	wb := want.Space().Bytes(want.Space().Base(), want.Space().Size())
	gb := got.Space().Bytes(got.Space().Base(), got.Space().Size())
	if !bytes.Equal(wb, gb) {
		t.Fatalf("%s: application bytes differ", context)
	}
}

// TestForkMatchesFresh extends the pooling-safety contract to lazily
// forked arenas: for every pooled configuration, a Fork(cfg) must be
// observably identical to New(cfg) — pristine, after the same workload,
// and after Reset. This is the differential proof that a shadow whose
// pages materialize on first write is indistinguishable from one whose
// pages were all privatized up front.
func TestForkMatchesFresh(t *testing.T) {
	for _, cfg := range resetConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/ref=%v/uar=%v", cfg.Kind, cfg.Reference, cfg.DetectUAR)
		t.Run(name, func(t *testing.T) {
			fresh := New(cfg)
			fork := Fork(cfg)
			requireEnvEqual(t, fresh, fork, "pristine fork vs fresh")
			// The constructors differ only in residency: a cold fork holds
			// no private page, New holds all of them.
			if pages, b := fork.OverlayStats(); pages != 0 || b != 0 {
				t.Fatalf("pristine fork resident: %d pages, %d bytes", pages, b)
			}
			total := fresh.ShadowBytes()
			if pages, b := fresh.OverlayStats(); pages != (total+shadow.PageBytes-1)/shadow.PageBytes || b != total {
				t.Fatalf("fresh New resident: %d pages, %d bytes; want all %d bytes", pages, b, total)
			}

			// The identical workload must produce the identical outcome
			// digest and leave identical shadows.
			want := dirty(t, fresh)
			got := dirty(t, fork)
			if want != got {
				t.Fatalf("fork diverges from fresh env:\nfresh: %s\nfork:  %s", want, got)
			}
			requireEnvEqual(t, fresh, fork, "after identical workloads")
			pages, b := fork.OverlayStats()
			if pages == 0 || b != pages*shadow.PageBytes {
				t.Fatalf("overlay stats after workload: %d pages, %d bytes", pages, b)
			}
			// Residency is proportional to what was dirtied, not to the
			// arena: the workload touches a few dozen KiB of a 256 KiB heap.
			if b >= total {
				t.Fatalf("overlay resident %d bytes >= whole shadow %d", b, total)
			}

			// Reset = overlay drop: byte-identical to a never-used fork and
			// to a fresh New env, with zero residual residency.
			fork.Reset()
			requireEnvEqual(t, New(cfg), fork, "after reset")
			if pages, b := fork.OverlayStats(); pages != 0 || b != 0 {
				t.Fatalf("post-reset fork resident: %d pages, %d bytes", pages, b)
			}
			if got := *fork.San().Stats(); got != (san.Stats{}) {
				t.Fatalf("post-reset stats not zeroed: %+v", got)
			}

			// Oracle ground truth cleared, as in the reset suite.
			base, size := fork.Space().Base(), fork.Space().Size()
			for off := uint64(0); off < size; off += 1 + off/97 {
				if st := fork.Oracle().StateAt(base + off); st != oracle.Unallocated {
					t.Fatalf("oracle state at +%d = %v after reset", off, st)
				}
			}

			// And the recycled fork still behaves exactly like fresh.
			if again := dirty(t, fork); again != want {
				t.Fatalf("recycled fork diverges:\nfresh: %s\nfork:  %s", want, again)
			}

			// The churn input on the recycled fork against a fresh one.
			fork.Reset()
			if want, got := churn(t, Fork(cfg)), churn(t, fork); got != want {
				t.Fatalf("churn on the recycled fork diverges:\nfresh fork: %s\nrecycled:   %s", want, got)
			}
		})
	}
}

// TestForkSiblingsAreIsolated pins the sharing boundary: two forks of the
// same base image must not observe each other's writes, and the registry
// serves one image per normalized config.
func TestForkSiblingsAreIsolated(t *testing.T) {
	cfg := Config{Kind: GiantSan, HeapBytes: 256 << 10, StackBytes: 64 << 10, WithOracle: true}
	a, b := Fork(cfg), Fork(cfg)
	dirty(t, a)
	requireEnvEqual(t, New(cfg), b, "sibling after a's workload")
	if pages, bb := b.OverlayStats(); pages != 0 || bb != 0 {
		t.Fatalf("sibling gained residency: %d pages, %d bytes", pages, bb)
	}
	if n := ImageRegistrySize(); n < 1 {
		t.Fatalf("registry size %d after forks", n)
	}
}

// TestResetIdempotent guards the pool's double-recycle path: resetting an
// already-clean env must keep it byte-for-byte fresh.
func TestResetIdempotent(t *testing.T) {
	cfg := Config{Kind: GiantSan, HeapBytes: 256 << 10, StackBytes: 64 << 10, WithOracle: true}
	fresh := New(cfg)
	env := New(cfg)
	dirty(t, env)
	env.Reset()
	env.Reset()
	fs, es := envShadow(t, fresh), envShadow(t, env)
	if !bytes.Equal(fs.Snapshot(0, fs.NumSegments()), es.Snapshot(0, es.NumSegments())) {
		t.Fatal("double reset corrupted the shadow")
	}
}
