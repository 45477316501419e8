package rt

import (
	"sync"

	"giantsan/internal/asan"
	"giantsan/internal/core"
	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// Base-image registry: one immutable pre-poisoned shadow snapshot per
// normalized Config key, built on first use and shared by every Env forked
// for that configuration afterwards. The images are uniform (the sanitizer
// constructors poison the whole space with one code), so each registry
// entry costs one overlay page plus a page-table slice no matter how large
// the arena is — but the registry is still bounded so that a service fed
// adversarially many distinct configurations cannot grow it without limit.
// Eviction just forgets the snapshot; forks that already hold it keep
// working, and the next Fork of that config rebuilds it.

// imageRegistryCap bounds the registry. Beyond this many distinct
// configurations the oldest entry is forgotten (FIFO: entries are cheap to
// rebuild, so recency bookkeeping on the lookup path isn't worth it).
const imageRegistryCap = 64

var imageReg = struct {
	sync.Mutex
	m     map[Config]*shadow.Image
	order []Config // insertion order, for FIFO eviction
}{m: make(map[Config]*shadow.Image)}

// baseImage returns the registry's pristine shadow image for cfg (which
// must be normalized), building and caching it on first use.
func baseImage(cfg Config) *shadow.Image {
	imageReg.Lock()
	defer imageReg.Unlock()
	if img, ok := imageReg.m[cfg]; ok {
		return img
	}
	sp := vmem.NewSpace(cfg.spaceBytes())
	var img *shadow.Image
	switch cfg.Kind {
	case ASan, ASanMinus:
		img = asan.BaseImage(sp)
	default:
		img = core.BaseImage(sp)
	}
	if len(imageReg.order) >= imageRegistryCap {
		delete(imageReg.m, imageReg.order[0])
		imageReg.order = imageReg.order[1:]
	}
	imageReg.m[cfg] = img
	imageReg.order = append(imageReg.order, cfg)
	return img
}

// ImageRegistrySize reports how many base images are currently cached, for
// tests and capacity monitoring.
func ImageRegistrySize() int {
	imageReg.Lock()
	defer imageReg.Unlock()
	return len(imageReg.m)
}

// Fork builds a runtime per cfg whose shadow is a lazy copy-on-write fork
// of the shared base image for cfg's normal form. Observably identical to
// New(cfg) — the fork differential suite proves it byte-for-byte — with
// two structural differences: construction writes no shadow bytes, and
// the resident shadow grows only with the pages the tenant dirties
// (Env.OverlayStats reports them), where New privatizes every page up
// front.
//
// A forked Env inherits shadow.Fork's single-goroutine contract: unlike a
// fresh New Env, whose disjoint bulk shadow writes may run concurrently, a
// fork must only ever be driven by one goroutine at a time. That is the
// service layer's session model, its intended user.
func Fork(cfg Config) *Env {
	cfg = cfg.Normalize()
	img := baseImage(cfg)
	sp := vmem.NewSpace(cfg.spaceBytes())
	var s san.Sanitizer
	switch cfg.Kind {
	case ASan:
		s = asan.Fork(img)
	case ASanMinus:
		s = asan.ForkMinus(img)
	default:
		s = core.Fork(img)
	}
	return assemble(cfg, sp, s)
}

// shadowed is satisfied by the sanitizers that expose their shadow memory
// (core and asan do; LFP has none).
type shadowed interface {
	Shadow() *shadow.Memory
}

// ShadowBytes returns the size of the Env's whole shadow plane — one byte
// per 8-byte segment over the address space. It is the ceiling
// OverlayStats is measured against: the bytes a New(cfg) arena privatizes
// up front.
func (e *Env) ShadowBytes() int {
	if sh, ok := e.san.(shadowed); ok {
		return sh.Shadow().NumSegments()
	}
	return 0
}

// OverlayStats reports the resident overlay footprint of the Env's shadow:
// privatized pages and their bytes. Zero for a fresh Fork and right after
// Reset, the whole plane for a fresh New — the "per-tenant memory
// proportional to dirtied pages" number TestForkResidencyTracksDirtiedPages
// pins on a real kernel.
func (e *Env) OverlayStats() (pages int, bytes int) {
	if sh, ok := e.san.(shadowed); ok {
		return sh.Shadow().OverlayStats()
	}
	return 0, 0
}
