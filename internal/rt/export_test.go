package rt

import (
	"giantsan/internal/asan"
	"giantsan/internal/core"
	"giantsan/internal/heap"
	"giantsan/internal/oracle"
	"giantsan/internal/san"
	"giantsan/internal/stack"
	"giantsan/internal/vmem"
)

// newPrivate is the differential suites' reference constructor: an Env
// per cfg assembled here, independently of New, over an all-private
// shadow (core.New, asan.New, asan.NewMinus) instead of a lazy fork. Its
// every shadow page is materialized before the first write, so a suite
// comparing New or a recycled Env against it compares a fork with a
// dense shadow, not a fork with a fork.
func newPrivate(cfg Config) *Env {
	cfg = cfg.Normalize()
	sp := vmem.NewSpace(cfg.spaceBytes())
	var s san.Sanitizer
	switch cfg.Kind {
	case ASan:
		s = asan.New(sp)
	case ASanMinus:
		s = asan.NewMinus(sp)
	default:
		s = core.New(sp)
	}
	var o *oracle.Oracle
	if cfg.WithOracle {
		o = oracle.New(sp)
	}
	s.(san.ReferencePath).SetReference(cfg.Reference)
	heapLimit := sp.Base() + vmem.Addr(cfg.HeapBytes)
	stackLimit := heapLimit + vmem.Addr(cfg.StackBytes)
	h := heap.New(sp, s, heap.Config{
		Redzone: cfg.Redzone, QuarantineBytes: cfg.QuarantineBytes, Oracle: o,
		Start: sp.Base(), Limit: heapLimit,
	})
	return &Env{
		cfg: cfg, space: sp, san: s, heap: h, oracle: o,
		stack: stack.New(sp, s, stack.Config{
			Redzone: cfg.Redzone, DetectUAR: cfg.DetectUAR, Oracle: o,
			Start: heapLimit, Limit: stackLimit,
		}),
		heapStart: sp.Base(), stackStart: heapLimit, globalStart: stackLimit,
		globalBump: stackLimit, globalLimit: sp.Limit(), globalRZ: h.Redzone(),
	}
}
