package heap

import (
	"fmt"
	"sort"

	"giantsan/internal/vmem"
)

// ChunkInfo describes the allocation nearest a faulting address, the raw
// material for ASan-style report annotations ("0x... is located 4 bytes
// to the right of 100-byte region ...").
type ChunkInfo struct {
	UserBase vmem.Addr
	UserSize uint64
	// State is "live", "quarantined" or "free".
	State string
	Label string
	// Offset is addr − UserBase (negative in the left redzone).
	Offset int64
}

// Relation renders the classic ASan position phrase for the address the
// info was located from.
func (ci ChunkInfo) Relation() string {
	switch {
	case ci.Offset < 0:
		return fmt.Sprintf("%d bytes to the left of", -ci.Offset)
	case uint64(ci.Offset) < ci.UserSize:
		return fmt.Sprintf("%d bytes inside of", ci.Offset)
	default:
		return fmt.Sprintf("%d bytes to the right of", uint64(ci.Offset)-ci.UserSize)
	}
}

// String renders the full annotation line.
func (ci ChunkInfo) String() string {
	s := fmt.Sprintf("%s %d-byte region [%#x,%#x)",
		ci.Relation(), ci.UserSize, ci.UserBase, ci.UserBase+vmem.Addr(ci.UserSize))
	if ci.State != "live" {
		s += " (" + ci.State + ")"
	}
	if ci.Label != "" {
		s += " allocated as " + ci.Label
	}
	return s
}

// Locate finds the chunk whose full extent (redzones included) contains
// addr, or the nearest chunk within slack bytes. It is an error-path-only
// cost, like ASan's report machinery, but it must stay cheap when a run
// reports many errors against a heap of many objects, so it searches the
// slab of chunk records instead of walking the registry: every record is
// cut at the bump frontier, so slab order is address order and the
// records tile the heap without gaps. Reserved records, which a thread
// cache has carved but never registered, are skipped. Chunk bounds are
// 8-byte aligned, so two chunks are never equally near an address.
func (a *Allocator) Locate(addr vmem.Addr, slack uint64) (ChunkInfo, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec := func(i int) *chunk { return &a.slab[i/slabChunks][i%slabChunks] }
	// i is the first record starting above addr: records below it start
	// at or below addr, records from it on start above.
	i := sort.Search(a.slabUsed, func(i int) bool { return rec(i).start > addr })
	var best *chunk
	var bestDist uint64 = ^uint64(0)
	for j := i - 1; j >= 0; j-- {
		if c := rec(j); c.state != stateReserved {
			best, bestDist = c, 0
			if hi := c.start + vmem.Addr(c.size); addr >= hi {
				bestDist = uint64(addr - hi + 1)
			}
			break
		}
	}
	for j := i; j < a.slabUsed; j++ {
		if c := rec(j); c.state != stateReserved {
			if dist := uint64(c.start - addr); dist < bestDist {
				best, bestDist = c, dist
			}
			break
		}
	}
	if best == nil || bestDist > slack {
		return ChunkInfo{}, false
	}
	return best.info(addr), true
}

// info describes c as seen from addr.
func (c *chunk) info(addr vmem.Addr) ChunkInfo {
	state := "live"
	switch c.state {
	case statePending:
		state = "freed (pending flush)"
	case stateQuarantined:
		state = "quarantined"
	case stateFree:
		state = "free"
	}
	return ChunkInfo{
		UserBase: c.userBase,
		UserSize: c.userSize,
		State:    state,
		Label:    c.label,
		Offset:   int64(addr) - int64(c.userBase),
	}
}
