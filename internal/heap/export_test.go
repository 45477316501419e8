package heap

import "giantsan/internal/vmem"

// locateLinear is the reference Locate: the walk over the whole registry
// that the slab search replaced. TestLocateMatchesLinearWalk holds the
// two equal.
func (a *Allocator) locateLinear(addr vmem.Addr, slack uint64) (ChunkInfo, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var best *chunk
	var bestDist uint64 = ^uint64(0)
	for _, c := range a.chunks {
		lo, hi := c.start, c.start+vmem.Addr(c.size)
		var dist uint64
		switch {
		case addr >= lo && addr < hi:
			dist = 0
		case addr < lo:
			dist = uint64(lo - addr)
		default:
			dist = uint64(addr - hi + 1)
		}
		if dist < bestDist {
			bestDist = dist
			best = c
		}
	}
	if best == nil || bestDist > slack {
		return ChunkInfo{}, false
	}
	return best.info(addr), true
}
