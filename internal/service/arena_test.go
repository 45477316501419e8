package service

import (
	"testing"

	"giantsan/internal/rt"
	"giantsan/internal/san"
)

func poolCfg(heapKiB uint64) rt.Config {
	return rt.Config{Kind: rt.GiantSan, HeapBytes: heapKiB << 10, StackBytes: 64 << 10}
}

// useArena leaves observable state in the env: non-zero sanitizer stats
// and dirtied heap bytes. Reset would erase both.
func useArena(t *testing.T, env *rt.Env) {
	t.Helper()
	p, err := env.Malloc(128)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	env.Space().Memset(p, 0x5A, 128)
	if st := env.San().Stats(); st.ShadowStores == 0 {
		t.Fatal("workload left no observable stats")
	}
}

// TestPutOverCapacitySkipsReset is the regression test for the Put
// ordering bug: an over-capacity Put used to pay the full env.Reset scrub
// and then drop the arena anyway. The capacity check must come first, so
// the drop path does no reset work — observable as the dropped arena
// keeping its stats and dirty bytes.
func TestPutOverCapacitySkipsReset(t *testing.T) {
	pool := NewArenaPool(1)
	cfg := poolCfg(256)
	a, _ := pool.Get(cfg)
	b, _ := pool.Get(cfg)
	useArena(t, a)
	useArena(t, b)

	pool.Put(a) // fills the only slot (and resets a)
	if st := *a.San().Stats(); st != (san.Stats{}) {
		t.Fatalf("shelved arena not reset: %+v", st)
	}
	pool.Put(b) // over capacity: must drop WITHOUT resetting
	if st := *b.San().Stats(); st == (san.Stats{}) {
		t.Fatal("over-capacity Put reset the arena before dropping it")
	}
	if pages, _ := b.OverlayStats(); pages == 0 {
		t.Fatal("over-capacity Put scrubbed the arena's overlay")
	}
	s := pool.Stats()
	if s.Dropped != 1 || s.Size != 1 {
		t.Fatalf("stats after over-capacity Put: %+v", s)
	}
}

// TestPoolShelvesAreDeleted is the regression test for the key leak:
// shelves in p.free were never removed when they emptied, so a service
// seeing many distinct configs grew the map without bound. Keys must
// track live shelves only.
func TestPoolShelvesAreDeleted(t *testing.T) {
	pool := NewArenaPool(2)
	const distinct = 8
	envs := make([]*rt.Env, distinct)
	for i := range envs {
		env, warm := pool.Get(poolCfg(uint64(64 * (i + 1))))
		if warm {
			t.Fatalf("config %d: first Get was warm", i)
		}
		envs[i] = env
	}
	for _, env := range envs {
		pool.Put(env)
	}
	if s := pool.Stats(); s.Keys != distinct || s.Size != distinct {
		t.Fatalf("after shelving %d configs: %+v", distinct, s)
	}
	// Draining every shelf must delete every map entry.
	for i := range envs {
		if _, warm := pool.Get(poolCfg(uint64(64 * (i + 1)))); !warm {
			t.Fatalf("config %d: drain Get was cold", i)
		}
	}
	if s := pool.Stats(); s.Keys != 0 || s.Size != 0 {
		t.Fatalf("drained pool still holds shelves: %+v", s)
	}
}

// TestPoolArenasAreForked pins the cold path to rt.Fork: pool arenas are lazy
// copy-on-write forks whose residency returns to zero on recycle.
func TestPoolArenasAreForked(t *testing.T) {
	pool := NewArenaPool(1)
	cfg := poolCfg(256)
	env, warm := pool.Get(cfg)
	if pages, bytes := env.OverlayStats(); warm || pages != 0 || bytes != 0 {
		t.Fatalf("cold Get: warm=%v, %d private pages, %d bytes; want a cold fork", warm, pages, bytes)
	}
	if pages, bytes := rt.New(cfg).OverlayStats(); bytes != env.ShadowBytes() || pages == 0 {
		t.Fatalf("New: %d private pages, %d bytes; want all %d shadow bytes", pages, bytes, env.ShadowBytes())
	}
	useArena(t, env)
	if pages, _ := env.OverlayStats(); pages == 0 {
		t.Fatal("workload dirtied no overlay pages")
	}
	pool.Put(env)
	recycled, warm := pool.Get(cfg)
	if !warm || recycled != env {
		t.Fatal("recycle did not return the shelved fork")
	}
	if pages, bytes := recycled.OverlayStats(); pages != 0 || bytes != 0 {
		t.Fatalf("recycled fork still resident: %d pages, %d bytes", pages, bytes)
	}
}

// TestPoolPutRaces exercises the reserve-then-reset protocol under
// contention: concurrent Puts against a small shelf must never
// oversubscribe it, and the books (shelved + dropped) must close.
func TestPoolPutRaces(t *testing.T) {
	pool := NewArenaPool(2)
	cfg := poolCfg(64)
	const n = 8
	envs := make([]*rt.Env, n)
	for i := range envs {
		envs[i], _ = pool.Get(cfg)
	}
	done := make(chan struct{})
	for _, env := range envs {
		go func(e *rt.Env) { pool.Put(e); done <- struct{}{} }(env)
	}
	for range envs {
		<-done
	}
	s := pool.Stats()
	if s.Size > 2 {
		t.Fatalf("shelf oversubscribed: %+v", s)
	}
	if int(s.Dropped)+s.Size != n {
		t.Fatalf("books don't close: %+v", s)
	}
}
