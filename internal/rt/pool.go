package rt

import "sync"

// Pool recycles Envs, keyed by their full normalized Config: two users
// share a shelf only when a fresh New would have built interchangeable
// Envs. A pool lives and dies with its owner (the service engine, a
// canary, a fuzz campaign); there is no process-wide one.
type Pool struct {
	mu     sync.Mutex
	perKey int
	free   map[Config][]*Env
	// pending counts Envs that hold a reserved shelf slot while their
	// Reset runs outside the lock, so concurrent Puts cannot oversubscribe
	// a shelf between the capacity check and the append.
	pending map[Config]int

	hits    uint64
	misses  uint64
	dropped uint64
}

// PoolStats is a snapshot of the pool counters.
type PoolStats struct {
	// Hits counts Gets served by a recycled (warm) Env; Misses counts
	// Gets that had to build a fresh one.
	Hits, Misses uint64
	// Dropped counts Envs discarded instead of shelved: suspect state
	// (panicked or failed runs) and over-capacity Puts. Every Env the
	// pool hands out is eventually either shelved or counted here — a
	// growing gap would be a leak.
	Dropped uint64
	// Size is the number of Envs currently shelved, across all keys.
	Size int
	// Keys is the number of live configuration shelves. Shelves are
	// deleted when they empty, so a pool that has seen many distinct
	// configs does not hold a map entry per config forever — Keys tracks
	// current occupancy, not history.
	Keys int
}

// NewPool returns a pool shelving at most perKey idle Envs per
// configuration (<= 0 means 1). The owner's concurrency is the natural
// bound: more Envs of one key than goroutines using them never leave the
// shelf.
func NewPool(perKey int) *Pool {
	if perKey <= 0 {
		perKey = 1
	}
	return &Pool{perKey: perKey, free: make(map[Config][]*Env), pending: make(map[Config]int)}
}

// Get returns an Env for cfg and whether it was recycled (warm). Shelves
// are LIFO, so the most recently reset Env — the one whose pages are
// likeliest still cached — goes out first. A cold Get is New(cfg).
func (p *Pool) Get(cfg Config) (env *Env, warm bool) {
	cfg = cfg.Normalize() // match the key Put derives from env.Config()
	p.mu.Lock()
	if list := p.free[cfg]; len(list) > 0 {
		env = list[len(list)-1]
		if len(list) == 1 {
			delete(p.free, cfg) // emptied shelf: drop the map entry too
		} else {
			p.free[cfg] = list[:len(list)-1]
		}
		p.hits++
		p.mu.Unlock()
		return env, true
	}
	p.misses++
	p.mu.Unlock()
	// Build outside the lock: construction must not serialize concurrent
	// cold Gets.
	return New(cfg), false
}

// Put resets env and shelves it for reuse. Envs beyond the per-key bound
// are dropped on the floor for the GC (and counted) — before paying for
// the reset: the capacity check reserves a shelf slot under the lock and
// only a Put that holds a reservation resets, so the over-capacity path
// does no reset work at all. A run that panicked or failed must NOT Put
// its Env back (its state is suspect) — it Drops it instead.
func (p *Pool) Put(env *Env) {
	cfg := env.Config()
	p.mu.Lock()
	if len(p.free[cfg])+p.pending[cfg] >= p.perKey {
		p.dropped++
		p.mu.Unlock()
		return
	}
	p.pending[cfg]++
	p.mu.Unlock()

	env.Reset() // the expensive part, outside the lock

	p.mu.Lock()
	if p.pending[cfg] == 1 {
		delete(p.pending, cfg)
	} else {
		p.pending[cfg]--
	}
	p.free[cfg] = append(p.free[cfg], env)
	p.mu.Unlock()
}

// Drop discards env without shelving it — the exit for Envs whose state
// is suspect (panicked runs, failed replays). Counting the discard keeps
// the pool's books closed: handed-out Envs are always either shelved or
// visibly dropped, never silently abandoned.
func (p *Pool) Drop(env *Env) {
	if env == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropped++
}

// Release hands env back after one run: Put when the run ended cleanly,
// Drop when it failed or panicked, since its state is then suspect.
func (p *Pool) Release(env *Env, clean bool) {
	if clean {
		p.Put(env)
	} else {
		p.Drop(env)
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	size := 0
	for _, list := range p.free {
		size += len(list)
	}
	return PoolStats{Hits: p.hits, Misses: p.misses, Dropped: p.dropped, Size: size, Keys: len(p.free)}
}
