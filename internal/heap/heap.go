// Package heap implements the simulated heap allocator that stands in for
// the sanitizer runtime's malloc/free interposition.
//
// The layout follows ASan's allocator, which GiantSan reuses unchanged
// (§4.5): every chunk is [left redzone][user region][right redzone], user
// pointers are 8-byte aligned, freed chunks enter a FIFO quarantine with a
// byte budget before their memory can be reused, and a thread-cache layer
// batches frees to avoid taking the central lock on every call.
//
// The allocator is encoding-agnostic: it drives a san.Poisoner, so the same
// allocator produces ASan's zero/partial codes or GiantSan's folded
// segments depending on which sanitizer is plugged in.
package heap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"giantsan/internal/oracle"
	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// Align is the allocation alignment every location-based sanitizer in the
// paper assumes (objects are 8-byte aligned).
const Align = 8

// DefaultRedzone is the default redzone size in bytes (the paper's default
// setting for GiantSan, ASan and ASan--).
const DefaultRedzone = 16

// DefaultQuarantine is the default quarantine budget in bytes. The real
// ASan default is 256 MiB; the simulated arenas are far smaller, so the
// default scales down while preserving the FIFO delayed-reuse behaviour.
const DefaultQuarantine = 1 << 20

// ErrOutOfMemory is returned when the arena cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("heap: simulated arena exhausted")

// chunkState tracks the lifecycle of a chunk.
type chunkState uint8

const (
	stateLive chunkState = iota
	// statePending marks a chunk freed through a thread cache but not yet
	// flushed to the central quarantine. The registry leaves the live
	// state at TCache.Free time so that the shadow (poisoned HeapFreed),
	// the oracle (bytes Freed) and the registry never disagree during the
	// pending window, and a second free is reported immediately.
	statePending
	stateQuarantined
	stateFree
	// stateReserved marks a fresh chunk not yet in the registry: carved
	// from the bump frontier for one Malloc, or reserved in a thread
	// cache's run.
	stateReserved
)

// chunk is the allocator-side record of one allocation.
type chunk struct {
	start    vmem.Addr // first byte of the left redzone
	size     uint64    // full extent including both redzones
	userBase vmem.Addr
	userSize uint64 // requested (possibly unaligned) size
	state    chunkState
	label    string
	// next links the chunk into the LIFO list it sits on while free: a
	// free list of the Allocator or a thread cache's reserved run.
	next *chunk
}

// slabChunks is the number of chunk records in one slab block.
const slabChunks = 256

func (c *chunk) userReserved() uint64 { return alignUp(c.userSize) }

func alignUp(n uint64) uint64 { return (n + Align - 1) &^ (Align - 1) }

// Config parameterizes an Allocator.
type Config struct {
	// Redzone is the size of each redzone in bytes; rounded up to 8.
	// Zero means DefaultRedzone.
	Redzone uint64
	// QuarantineBytes is the FIFO quarantine budget. Zero means
	// DefaultQuarantine. Negative... use NoQuarantine to disable.
	QuarantineBytes uint64
	// NoQuarantine disables delayed reuse entirely (used by the LFP
	// baseline, which has no temporal protection by quarantine).
	NoQuarantine bool
	// Oracle, when non-nil, mirrors every allocator action into the
	// ground-truth oracle so property tests and detection suites can
	// compare sanitizer verdicts with reality.
	Oracle *oracle.Oracle
	// Start and Limit bound the arena region inside the space; both zero
	// means the whole space. They must be 8-byte aligned.
	Start, Limit vmem.Addr
}

// Allocator is a segregated-free-list heap allocator over a simulated
// address space.
type Allocator struct {
	mu    sync.Mutex
	space *vmem.Space
	p     san.Poisoner
	// cp is p's chunk-batching extension, resolved once at construction so
	// the hot allocation path pays no per-call type assertion; nil when the
	// poisoner only implements the base interface.
	cp     san.ChunkPoisoner
	cfg    Config
	rz     uint64
	start  vmem.Addr // heap region start
	limit  vmem.Addr // heap region limit
	bump   vmem.Addr
	chunks map[vmem.Addr]*chunk // keyed by userBase; live + quarantined + free
	free   map[uint64]*chunk    // LIFO free-list heads keyed by full chunk size
	// quar[quarHead:] is the FIFO quarantine, oldest first; evictions
	// advance quarHead and compaction reclaims the dead prefix.
	quar     []*chunk
	quarHead int
	quarLen  uint64 // quarantined bytes
	// sorted is the eviction sweep's reusable address-order buffer.
	sorted []*chunk
	// slab holds every chunk record of the arena in blocks of slabChunks;
	// slabUsed counts the records handed out since the last Reset, which
	// reuses them all.
	slab     [][]chunk
	slabUsed int

	stats AllocStats
}

// AllocStats counts allocator activity.
type AllocStats struct {
	Mallocs, Frees   uint64
	BytesAllocated   uint64
	BytesLive        uint64
	QuarantinePushes uint64
	QuarantinePops   uint64
	FreeListReuses   uint64
	// TCacheHits counts allocations satisfied from a thread cache's
	// reserved run; TCacheRefills counts the runs reserved.
	TCacheHits    uint64
	TCacheRefills uint64
	// EvictionSweeps counts the merged poison sweeps the quarantine made
	// while retiring evicted chunks (≤ QuarantinePops: adjacent chunks
	// share one sweep).
	EvictionSweeps uint64
}

// New returns an allocator managing [space.Base(), space.Limit()) minus a
// small guard at each end, poisoning through p.
func New(space *vmem.Space, p san.Poisoner, cfg Config) *Allocator {
	if cfg.Redzone == 0 {
		cfg.Redzone = DefaultRedzone
	}
	if cfg.QuarantineBytes == 0 {
		cfg.QuarantineBytes = DefaultQuarantine
	}
	start, limit := cfg.Start, cfg.Limit
	if start == 0 && limit == 0 {
		start, limit = space.Base(), space.Limit()
	}
	cp, _ := p.(san.ChunkPoisoner)
	a := &Allocator{
		space:  space,
		p:      p,
		cp:     cp,
		cfg:    cfg,
		rz:     alignUp(cfg.Redzone),
		start:  start,
		limit:  limit,
		bump:   start,
		chunks: make(map[vmem.Addr]*chunk),
		free:   make(map[uint64]*chunk),
	}
	return a
}

// Space returns the underlying address space.
func (a *Allocator) Space() *vmem.Space { return a.space }

// Redzone returns the configured redzone size (aligned).
func (a *Allocator) Redzone() uint64 { return a.rz }

// Stats returns a copy of the allocator counters.
func (a *Allocator) Stats() AllocStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// chunkSizeFor returns the full chunk footprint for a user size.
func (a *Allocator) chunkSizeFor(userSize uint64) uint64 {
	return a.rz + alignUp(userSize) + a.rz
}

// tooLarge reports a user size larger than the whole arena. Malloc
// refuses such a size before chunkSizeFor, whose rounding a size near
// 2^64 would wrap to a small chunk.
func (a *Allocator) tooLarge(size uint64) error {
	return fmt.Errorf("%w: %d bytes exceed the %d-byte arena", ErrOutOfMemory, size, a.limit-a.start)
}

// Malloc allocates size bytes (size ≥ 1; size 0 is promoted to 1, matching
// malloc(0) returning a unique pointer) and returns the 8-byte-aligned user
// base address.
func (a *Allocator) Malloc(size uint64) (vmem.Addr, error) {
	return a.MallocLabeled(size, "")
}

// MallocLabeled is Malloc with a diagnostic label recorded in reports and
// the oracle.
func (a *Allocator) MallocLabeled(size uint64, label string) (vmem.Addr, error) {
	if size == 0 {
		size = 1
	}
	if size > uint64(a.limit-a.start) {
		return 0, a.tooLarge(size)
	}
	a.mu.Lock()
	c, err := a.takeChunk(a.chunkSizeFor(size))
	if err != nil {
		a.mu.Unlock()
		return 0, err
	}
	a.registerLocked(c, size, label)
	a.mu.Unlock()
	a.finishMalloc(c, label)
	return c.userBase, nil
}

// newChunkLocked returns a fresh chunk record for [start, start+full),
// taken from the slab. Caller holds the lock.
func (a *Allocator) newChunkLocked(start vmem.Addr, full uint64, state chunkState) *chunk {
	blk, i := a.slabUsed/slabChunks, a.slabUsed%slabChunks
	if blk == len(a.slab) {
		a.slab = append(a.slab, make([]chunk, slabChunks))
	}
	a.slabUsed++
	c := &a.slab[blk][i]
	*c = chunk{start: start, size: full, state: state}
	return c
}

// registerLocked makes chunk c the live allocation for size bytes and
// publishes it in the registry. A chunk recycled from a free list is
// already registered under the same userBase. Caller holds the lock.
func (a *Allocator) registerLocked(c *chunk, size uint64, label string) {
	recycled := c.state == stateFree
	c.userBase = c.start + a.rz
	c.userSize = size
	c.state = stateLive
	c.label = label
	c.next = nil
	if !recycled {
		a.chunks[c.userBase] = c
	}
	a.stats.Mallocs++
	a.stats.BytesAllocated += size
	a.stats.BytesLive += size
}

// finishMalloc performs the out-of-lock tail of an allocation: shadow for
// the chunk is owned by it, so poisoning needs no lock.
func (a *Allocator) finishMalloc(c *chunk, label string) {
	a.poisonChunk(c)
	if a.cfg.Oracle != nil {
		// The alignment tail between userSize and userReserved is redzone
		// territory in ground truth.
		tail := c.userReserved() - c.userSize
		a.cfg.Oracle.Alloc(c.userBase, c.userSize, a.rz, a.rz+tail, oracle.Heap, label)
	}
}

// poisonChunk lays down the full shadow image of a live chunk: left
// redzone, allocated user region, alignment tail plus right redzone. One
// templated stamp when the poisoner batches; the classic three-call
// sequence otherwise — observably identical either way.
func (a *Allocator) poisonChunk(c *chunk) {
	if a.cp != nil {
		a.cp.PoisonChunk(c.start, a.rz, c.userSize, a.rz, san.RedzoneLeft, san.RedzoneRight)
		return
	}
	a.p.Poison(c.start, a.rz, san.RedzoneLeft)
	a.p.MarkAllocated(c.userBase, c.userSize)
	a.p.Poison(c.userBase+c.userReserved(), a.rz, san.RedzoneRight)
}

// takeChunk acquires a chunk with the given full size, reusing the free
// list before extending the bump frontier. Caller holds the lock.
func (a *Allocator) takeChunk(full uint64) (*chunk, error) {
	if c := a.free[full]; c != nil {
		// The chunk stays in the registry, marked free, until
		// registerLocked makes it live under the same userBase.
		a.free[full] = c.next
		a.stats.FreeListReuses++
		if a.cfg.Oracle != nil {
			a.cfg.Oracle.Recycle(c.userBase, c.userSize)
		}
		return c, nil
	}
	if a.bump+vmem.Addr(full) > a.limit {
		return nil, fmt.Errorf("%w: need %d bytes, %d left", ErrOutOfMemory, full, a.limit-a.bump)
	}
	c := a.newChunkLocked(a.bump, full, stateReserved)
	a.bump += vmem.Addr(full)
	return c, nil
}

// pushFreeLocked puts c on the head of its size's free list. Caller holds
// the lock.
func (a *Allocator) pushFreeLocked(c *chunk) {
	c.state = stateFree
	c.next = a.free[c.size]
	a.free[c.size] = c
}

// reserveRun carves n contiguous fresh chunks of the given full size from
// the bump frontier for a thread cache's refill. The caller holds the
// lock. It returns the first chunk of the run and the rest as a LIFO list
// whose head is the highest address, all unregistered and with untouched
// shadow: until the owning cache registers one as live, nothing else can
// reach them, so the cache poisons the whole run in one HeapFreed sweep
// after releasing the lock.
func (a *Allocator) reserveRun(full uint64, n int) (first, rest *chunk, err error) {
	need := vmem.Addr(full) * vmem.Addr(n)
	if a.bump+need > a.limit {
		return nil, nil, fmt.Errorf("%w: need %d bytes, %d left", ErrOutOfMemory, need, a.limit-a.bump)
	}
	first = a.newChunkLocked(a.bump, full, stateReserved)
	a.bump += vmem.Addr(full)
	for i := 1; i < n; i++ {
		c := a.newChunkLocked(a.bump, full, stateReserved)
		c.next = rest
		rest = c
		a.bump += vmem.Addr(full)
	}
	a.stats.TCacheRefills++
	return first, rest, nil
}

// Free deallocates the allocation at p. It reports double frees and frees
// of non-allocation addresses instead of corrupting state.
func (a *Allocator) Free(p vmem.Addr) *report.Error {
	a.mu.Lock()
	c, ok := a.chunks[p]
	if !ok {
		a.mu.Unlock()
		return &report.Error{Kind: report.InvalidFree, Access: report.FreeOp, Addr: p}
	}
	switch c.state {
	case statePending, stateQuarantined, stateFree:
		a.mu.Unlock()
		return &report.Error{Kind: report.DoubleFree, Access: report.FreeOp, Addr: p, Context: c.label}
	}
	a.stats.Frees++
	a.stats.BytesLive -= c.userSize
	a.quarantineLocked(c)
	a.mu.Unlock()

	// The whole user region becomes non-addressable "freed" memory. The
	// redzones keep their codes (they stay non-addressable either way).
	a.p.Poison(c.userBase, c.userReserved(), san.HeapFreed)
	if a.cfg.Oracle != nil {
		a.cfg.Oracle.Free(p)
	}
	return nil
}

// quarantineLocked retires c into the FIFO quarantine (or straight to the
// free list under NoQuarantine), recycling any evicted chunks. The caller
// holds the lock; c must be live or pending.
func (a *Allocator) quarantineLocked(c *chunk) {
	if a.cfg.NoQuarantine {
		a.pushFreeLocked(c)
		return
	}
	c.state = stateQuarantined
	a.quar = append(a.quar, c)
	a.quarLen += c.size
	a.stats.QuarantinePushes++
	from := a.quarHead
	for a.quarLen > a.cfg.QuarantineBytes && a.quarHead < len(a.quar) {
		old := a.quar[a.quarHead]
		a.quarHead++
		a.quarLen -= old.size
		a.stats.QuarantinePops++
	}
	if popped := a.quar[from:a.quarHead]; len(popped) > 0 {
		a.sweepEvictedLocked(popped)
		for _, old := range popped {
			a.pushFreeLocked(old)
		}
	}
	// Compact once the dead prefix outweighs the live FIFO, so each entry
	// is moved O(1) times on average and the array stays at most twice the
	// quarantine's length.
	if live := len(a.quar) - a.quarHead; a.quarHead > live {
		copy(a.quar, a.quar[a.quarHead:])
		a.quar = a.quar[:live]
		a.quarHead = 0
	}
}

// sweepEvictedLocked retires the shadow of evicted chunks: each chunk's
// whole extent — redzones included — becomes HeapFreed, and address-adjacent
// chunks (the common case: quarantine evicts in FIFO order, and frees of a
// run of bump-allocated chunks arrive together) are merged so one poisoner
// sweep covers the whole run instead of one call per chunk. It must run
// while the caller still holds the lock: the moment a chunk reaches the
// free list a concurrent Malloc may take it and stamp its live image, and
// a late eviction sweep would wipe that out.
func (a *Allocator) sweepEvictedLocked(evicted []*chunk) {
	// Sort a copy: the caller pushes onto the free lists in pop order, and
	// that FIFO reuse order must not depend on address layout.
	sorted := append(a.sorted[:0], evicted...)
	slices.SortFunc(sorted, func(x, y *chunk) int {
		return cmp.Compare(x.start, y.start)
	})
	runStart, runLen := sorted[0].start, sorted[0].size
	for _, old := range sorted[1:] {
		if runStart+vmem.Addr(runLen) == old.start {
			runLen += old.size
			continue
		}
		a.p.Poison(runStart, runLen, san.HeapFreed)
		a.stats.EvictionSweeps++
		runStart, runLen = old.start, old.size
	}
	a.p.Poison(runStart, runLen, san.HeapFreed)
	a.stats.EvictionSweeps++
	a.sorted = sorted[:0]
}

// finishPending moves a thread-cache pending chunk into the central
// quarantine. Detection-relevant state (chunk state, shadow poison, oracle
// ground truth) was already updated at TCache.Free time; only the batched
// central counters and the quarantine FIFO are touched here.
func (a *Allocator) finishPending(p vmem.Addr) *report.Error {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.chunks[p]
	if !ok || c.state != statePending {
		// A pending entry that is no longer pending means the pointer was
		// re-routed around its owning tcache — classify as invalid free.
		return &report.Error{Kind: report.InvalidFree, Access: report.FreeOp, Addr: p}
	}
	a.stats.Frees++
	a.stats.BytesLive -= c.userSize
	a.quarantineLocked(c)
	return nil
}

// Realloc resizes the allocation at p following C semantics as ASan
// interposes them: a fresh chunk is allocated, min(old,new) bytes of
// content are copied, and the old chunk is freed into the quarantine —
// so stale pointers into the old region are detected like any UAF.
// Realloc(0, size) behaves as Malloc; invalid p is reported.
func (a *Allocator) Realloc(p vmem.Addr, size uint64) (vmem.Addr, *report.Error, error) {
	if p == 0 {
		np, err := a.Malloc(size)
		return np, nil, err
	}
	oldSize, ok := a.UserSize(p)
	if !ok {
		return 0, &report.Error{Kind: report.InvalidFree, Access: report.FreeOp, Addr: p}, nil
	}
	np, err := a.Malloc(size)
	if err != nil {
		return 0, nil, err
	}
	a.space.Memcpy(np, p, min(oldSize, size))
	if rerr := a.Free(p); rerr != nil {
		return np, rerr, nil
	}
	return np, nil, nil
}

// UserSize returns the requested size of the live allocation at p, or
// (0, false) if p is not a live allocation base.
func (a *Allocator) UserSize(p vmem.Addr) (uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.chunks[p]
	if !ok || c.state != stateLive {
		return 0, false
	}
	return c.userSize, true
}

// QuarantineLen returns the number of chunks currently quarantined.
func (a *Allocator) QuarantineLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.quar) - a.quarHead
}

// LiveBytes returns the bytes in live allocations.
func (a *Allocator) LiveBytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.BytesLive
}

// Footprint returns the arena bytes consumed so far (chunks plus their
// redzones): the memory-overhead measure the redzone ablation reports.
func (a *Allocator) Footprint() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return uint64(a.bump - a.start)
}

// Reset returns the allocator to its just-constructed state and reports
// the arena footprint it released: registry and free lists emptied, the
// quarantine drained, counters zeroed, and the bump frontier back at the
// region start. The registry's buckets, the quarantine's array and the
// slab of chunk records keep their capacity for the next session. It does
// not touch shadow memory — the caller (rt.Env.Reset) restores the shadow
// over the released footprint — and it must not be called while thread
// caches built on this allocator are still in use: their reserved runs
// are forgotten here (and their records handed out again), so a later
// TCache call would be misclassified. The arena pool resets between
// sessions, when no caches are live.
func (a *Allocator) Reset() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	used := uint64(a.bump - a.start)
	a.bump = a.start
	clear(a.chunks)
	clear(a.free)
	a.quar = a.quar[:0]
	a.quarHead = 0
	a.quarLen = 0
	a.slabUsed = 0
	a.stats = AllocStats{}
	return used
}
