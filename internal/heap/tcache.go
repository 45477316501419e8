package heap

import (
	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// TCache is a thread-local allocation cache in the style of the ASan
// allocator's per-thread caches, which GiantSan inherits (§4.5: "thread-local
// caches are utilized to avoid locking on every call of the malloc and free
// functions").
//
// A TCache batches frees per size class and hands batches to the central
// allocator. It is NOT safe for concurrent use — that is the point: each
// simulated thread owns one.
type TCache struct {
	a *Allocator
	// pending holds freed pointers not yet flushed to the central
	// quarantine, keyed by nothing (order preserved).
	pending []vmem.Addr
	// FlushAt is the batch size; zero means 64.
	FlushAt int
	// RefillAt, when positive, enables the allocation fast path: a miss on
	// the local cache reserves RefillAt contiguous fresh chunks of the size
	// class in one central critical section and poisons the whole reserved
	// run as freed memory in one sweep; later Mallocs of the class take a
	// reserved chunk with only the brief registration lock. Zero keeps the
	// seed behaviour (every Malloc goes through the central allocator).
	RefillAt int
	// cache holds the heads of LIFO lists of reserved fresh chunks, keyed
	// by full chunk size.
	cache map[uint64]*chunk
}

// NewTCache returns a thread cache over a.
func (a *Allocator) NewTCache() *TCache { return &TCache{a: a} }

// Malloc allocates a chunk, through the local reserved-run cache when
// RefillAt is set and through the central allocator otherwise.
func (t *TCache) Malloc(size uint64) (vmem.Addr, error) { return t.MallocLabeled(size, "") }

// MallocLabeled is Malloc with a diagnostic label recorded in reports and
// the oracle.
func (t *TCache) MallocLabeled(size uint64, label string) (vmem.Addr, error) {
	if t.RefillAt <= 0 {
		return t.a.MallocLabeled(size, label)
	}
	if size == 0 {
		size = 1
	}
	a := t.a
	if size > uint64(a.limit-a.start) {
		return 0, a.tooLarge(size)
	}
	full := a.chunkSizeFor(size)
	if c := t.cache[full]; c != nil {
		t.cache[full] = c.next
		a.mu.Lock()
		a.registerLocked(c, size, label)
		a.stats.TCacheHits++
		a.mu.Unlock()
		a.finishMalloc(c, label)
		return c.userBase, nil
	}
	// Miss: recycled central chunks first (delayed-reuse semantics must not
	// change because a cache sits in front), then a fresh reserved run.
	a.mu.Lock()
	if a.free[full] != nil {
		c, err := a.takeChunk(full)
		if err != nil {
			a.mu.Unlock()
			return 0, err
		}
		a.registerLocked(c, size, label)
		a.mu.Unlock()
		a.finishMalloc(c, label)
		return c.userBase, nil
	}
	c, rest, err := a.reserveRun(full, t.RefillAt)
	a.mu.Unlock()
	if err != nil {
		// The arena tail cannot hold a whole run; the central allocator
		// decides whether a single chunk still fits.
		return a.MallocLabeled(size, label)
	}
	// One sweep poisons the entire reserved run as freed memory. No lock
	// needed: nothing else can reach these chunks until they are
	// registered.
	a.p.Poison(c.start, full*uint64(t.RefillAt), san.HeapFreed)
	if rest != nil {
		if t.cache == nil {
			t.cache = make(map[uint64]*chunk)
		}
		t.cache[full] = rest
	}
	a.mu.Lock()
	a.registerLocked(c, size, label)
	a.stats.TCacheHits++
	a.mu.Unlock()
	a.finishMalloc(c, label)
	return c.userBase, nil
}

// Free records the free locally and flushes a batch when full. Invalid and
// double frees are detected immediately: the chunk leaves the live state,
// is poisoned, and ground truth is updated at Free time, so detection
// never depends on flush timing — a second free of the same pointer inside
// the pending window reports right away, whichever path it takes.
func (t *TCache) Free(p vmem.Addr) *report.Error {
	a := t.a
	a.mu.Lock()
	c, ok := a.chunks[p]
	if !ok || c.state != stateLive {
		a.mu.Unlock()
		// Delegate so the error classification logic stays in one place
		// (invalid free vs double free, including pending chunks).
		return a.Free(p)
	}
	c.state = statePending
	a.mu.Unlock()
	// Temporal state becomes consistent immediately: shadow poisoned,
	// oracle freed, registry pending. Only the quarantine hand-off (and
	// the batched central counters) waits for the flush.
	a.p.Poison(c.userBase, c.userReserved(), san.HeapFreed)
	if a.cfg.Oracle != nil {
		a.cfg.Oracle.Free(p)
	}
	t.pending = append(t.pending, p)
	limit := t.FlushAt
	if limit == 0 {
		limit = 64
	}
	if len(t.pending) >= limit {
		return t.Flush()
	}
	return nil
}

// Flush pushes all pending frees to the central quarantine. The first
// error (if any) is returned.
func (t *TCache) Flush() *report.Error {
	var first *report.Error
	for _, p := range t.pending {
		if err := t.a.finishPending(p); err != nil && first == nil {
			first = err
		}
	}
	t.pending = t.pending[:0]
	return first
}

// Pending returns the number of unflushed frees.
func (t *TCache) Pending() int { return len(t.pending) }
