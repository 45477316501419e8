package bench

import (
	"time"

	"giantsan/internal/interp"
	"giantsan/internal/parallel"
	"giantsan/internal/san"
)

// Options configures the parallel experiment engine shared by every
// driver in this package. The engine shards an experiment's matrix
// (kernel × sanitizer × repetition, corpus case × tool, traversal
// pattern × mode × size) across a bounded worker pool; every work item
// builds its own shared-nothing runtime — space, shadow, heap, stack —
// via newRuntime, so items interact only through the machine. Results
// are merged ordered by matrix index, never by completion order, so
// rendered tables are identical at any Parallel level.
type Options struct {
	// Parallel is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Parallel int
	// Timeout guards one matrix item (one kernel execution, one corpus
	// case): a hung item fails the run instead of wedging it. Zero
	// disables the guard.
	Timeout time.Duration
	// Progress, when non-nil, receives a snapshot after every completed
	// item (done/total counts, elapsed, projected ETA).
	Progress func(parallel.Progress)
	// VirtualTime replaces wall-clock measurement with the deterministic
	// cost model below, making timing tables byte-identical across runs
	// and across any Parallel level. Wall time (the default) is the
	// paper's actual measurement but is machine- and load-dependent.
	VirtualTime bool
}

// pool translates the bench options into pool options.
func (o Options) pool() parallel.Options {
	return parallel.Options{Workers: o.Parallel, Timeout: o.Timeout, OnProgress: o.Progress}
}

// The virtual-time cost model: every unit of hardware-independent work a
// run performs is billed a fixed latency. The constants are loosely
// calibrated to a modern core — an access stands for a handful of
// instructions (10ns), a check is a test-and-branch on loaded shadow
// (2ns), a shadow load an L1 hit (2ns, cheap because shadow is 1/8 the
// footprint and streams well), the slow path a short out-of-line call
// (8ns), a history-cache refill a folded-bound recomputation (16ns), and
// a range check the amortized loop-level comparison (1ns). Their absolute
// values matter less than their being fixed: virtual durations are
// exactly reproducible, and with these weights the suite's geometric
// means keep the paper's Table 2 ordering (native < GiantSan < ablations
// < ASan, GiantSan < ASan-- < ASan) from the counters alone.
const (
	vAccessNs      = 10
	vCheckNs       = 2
	vShadowLoadNs  = 2
	vSlowCheckNs   = 8
	vCacheRefillNs = 16
	vRangeCheckNs  = 1
)

// virtualDuration converts one run's work counters into its deterministic
// virtual wall time.
func virtualDuration(res *interp.Result) time.Duration {
	return VirtualCost(res.Stats.Accesses, &res.San)
}

// VirtualCost converts hardware-independent work counters — accesses
// performed plus a sanitizer's Stats — into the deterministic virtual
// duration of the cost model above. Exported for the service layer, which
// bills every session on this clock so per-session deadline enforcement
// is reproducible across machines and interleavings.
func VirtualCost(accesses uint64, sn *san.Stats) time.Duration {
	cost := accesses*vAccessNs +
		sn.Checks*vCheckNs +
		sn.ShadowLoads*vShadowLoadNs +
		sn.SlowChecks*vSlowCheckNs +
		sn.CacheRefills*vCacheRefillNs +
		sn.RangeChecks*vRangeCheckNs
	return time.Duration(cost) * time.Nanosecond
}
