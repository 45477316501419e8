// Package service is the multi-tenant sanitization session engine: the
// production shell that turns the repo's one-shot experiment drivers into
// a server. A session binds one request — a workload run or an uploaded
// trace replay, under a chosen sanitizer, scale and virtual-clock
// deadline — to a pooled execution arena, and the engine around it
// provides bounded admission with backpressure, panic isolation, graceful
// drain, and a Prometheus-text metrics surface. The service scales out
// as separate processes behind a federating front-end (see
// federation.go), each process owning its own pool and admission queue.
//
// Arenas come from the engine's rt.Pool, the one recycler every harness
// shares. A cold arena is rt.New, a lazy copy-on-write fork of its
// shadow's uniform base image: construction writes no shadow bytes, and a
// tenant's resident shadow is proportional to the pages it dirtied. A
// warm arena was recycled through rt.Env.Reset, an O(dirty pages) overlay
// drop plus zeroing of the application bytes the last session touched.
// The reset and fork differential suites in internal/rt are what make
// this safe: a recycled arena is byte-for-byte equivalent to a fresh one,
// so no shadow poison, application bytes, counters or oracle state can
// leak between tenants.
package service

import "giantsan/internal/rt"

// ArenaPool is rt.Pool under the name the session benchmark uses; delete
// it, ArenaStats and NewArenaPool once that caller names rt.Pool.
type ArenaPool = rt.Pool

// ArenaStats is rt.PoolStats, the engine's arena counters.
type ArenaStats = rt.PoolStats

// NewArenaPool is rt.NewPool.
func NewArenaPool(perKey int) *ArenaPool { return rt.NewPool(perKey) }
