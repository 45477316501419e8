package service

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// The consistent-hash ring is the service's placement mechanism: a
// federating front-end routes tenants onto remote backend processes with
// it. Membership change remaps only ~1/N of the keys (the tested
// property), and a tenant's placement is a pure function of (member
// names, tenant key), so independent routers agree.

// vnodesPerMember is the ring density. 64 vnodes per member keeps the
// expected load imbalance between members in the low single-digit percent.
const vnodesPerMember = 64

type ringEntry struct {
	hash   uint64
	member int
}

// ring maps arbitrary string keys onto member indexes by consistent
// hashing: each member contributes vnodesPerMember points on a 64-bit
// circle, and a key lands on the first point clockwise of its hash.
// Removing or adding one member moves only the keys adjacent to its own
// points — ~1/N of them — while every other key keeps its placement.
type ring struct {
	entries []ringEntry
}

// buildRing places vnodesPerMember vnodes per member name. The vnode
// label is derived from the member's name, not its index, so a member's
// ring points survive other members joining or leaving.
func buildRing(members []string) ring {
	r := ring{entries: make([]ringEntry, 0, len(members)*vnodesPerMember)}
	for i, name := range members {
		for v := 0; v < vnodesPerMember; v++ {
			r.entries = append(r.entries, ringEntry{hash: hash64(fmt.Sprintf("%s/vnode-%d", name, v)), member: i})
		}
	}
	sort.Slice(r.entries, func(a, b int) bool { return r.entries[a].hash < r.entries[b].hash })
	return r
}

// lookup returns the member index the key routes to: the first ring vnode
// clockwise of the key's hash. A ring with no entries returns -1.
func (r ring) lookup(key string) int {
	if len(r.entries) == 0 {
		return -1
	}
	h := hash64(key)
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
	if i == len(r.entries) {
		i = 0 // wrap
	}
	return r.entries[i].member
}

func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-64a alone clusters on the
// near-identical short strings used as vnode labels (ring positions end
// up bunched, starving some members); a final avalanche step spreads
// them uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// routeKey is the session's placement identity: the tenant when given,
// else the workload ID (all sessions of one workload share arena shape,
// so colocating them maximizes warm hits), else the trace body.
func routeKey(req *Request) string {
	switch {
	case req.Tenant != "":
		return req.Tenant
	case req.Workload != "":
		return req.Workload
	default:
		return req.TraceB64
	}
}
