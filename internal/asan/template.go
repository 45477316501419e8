package asan

import (
	"sync/atomic"

	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// Allocation-path fast lane for the ASan baseline, mirroring
// internal/core/template.go so the metadata-path benchmark compares the
// sanitizers on equal engineering footing. ASan's allocated-region image is
// trivial (zeros plus an optional partial code), but a whole chunk still
// takes three separate writer calls; memoizing the full
// [redzone][zeros][tail][redzone] image per size class turns that into one
// copy. Caches are package-global, lock-free and bounded like core's:
// direct-mapped shadow.TemplateTables of fixed slot counts, retaining at
// most about 1024 × 8 KiB ≈ 8 MiB of chunk images and 256 × 8 KiB ≈ 2 MiB
// of frame images. They must stay byte-identical to the reference
// writers, which the asan poisoner differential suite enforces.

// maxTemplateSegs bounds memoized template length, matching core.
const maxTemplateSegs = 1 << 13

// Slot counts and the memoized frame bounds, matching core.
const (
	chunkSlots     = 1024
	frameSlots     = 256
	maxFrameLocals = 20
	frameKeyBytes  = 3 * (1 + maxFrameLocals)
)

// chunkTemplates memoizes whole-chunk shadow images keyed by
// shadow.ChunkKey.
var chunkTemplates = shadow.NewTemplateTable[uint64](chunkSlots)

// chunkSegs returns the segment geometry of a chunk layout.
func chunkSegs(leftRZ, userSize, rightRZ uint64) (lSegs, q, rem, total int) {
	lSegs = int((leftRZ + 7) >> shadow.SegShift)
	q = int(userSize >> shadow.SegShift)
	rem = int(userSize & 7)
	total = lSegs + q + int((rightRZ+7)>>shadow.SegShift)
	if rem > 0 {
		total++
	}
	return
}

// chunkTemplate returns the memoized whole-chunk shadow image of a layout
// of at most maxTemplateSegs segments.
func chunkTemplate(leftRZ, userSize, rightRZ uint64, left, right san.PoisonKind) []uint8 {
	key, ok := shadow.ChunkKey(leftRZ, userSize, rightRZ, int(left), int(right))
	if ok {
		if e := chunkTemplates.Load(key); e != nil && e.Key == key {
			return e.Codes
		}
	}
	lSegs, q, rem, total := chunkSegs(leftRZ, userSize, rightRZ)
	tpl := make([]uint8, total)
	lc := poisonCode(left)
	for i := 0; i < lSegs; i++ {
		tpl[i] = lc
	}
	// The q user segments stay CodeGood (zero) as make left them.
	p := lSegs + q
	if rem > 0 {
		tpl[p] = uint8(rem)
		p++
	}
	rc := poisonCode(right)
	for i := p; i < total; i++ {
		tpl[i] = rc
	}
	if ok {
		chunkTemplates.Store(key, key, tpl)
	}
	return tpl
}

// PoisonChunk implements san.ChunkPoisoner: one templated stamp for the
// whole chunk layout, observably identical to the three-call reference
// sequence.
func (a *Sanitizer) PoisonChunk(start vmem.Addr, leftRZ, userSize, rightRZ uint64, left, right san.PoisonKind) {
	reserved := (userSize + 7) &^ 7
	if a.ref {
		a.PoisonRef(start, leftRZ, left)
		a.MarkAllocatedRef(start+vmem.Addr(leftRZ), userSize)
		a.PoisonRef(start+vmem.Addr(leftRZ+reserved), rightRZ, right)
		return
	}
	lSegs, q, rem, total := chunkSegs(leftRZ, userSize, rightRZ)
	l := a.sh.Index(start)
	if total > maxTemplateSegs {
		// Oversized chunk: compose the word-wide piecewise writers.
		a.sh.Fill64(l, lSegs, poisonCode(left))
		a.sh.Fill64(l+lSegs, q, CodeGood)
		if rem > 0 {
			a.sh.StoreSeg(l+lSegs+q, uint8(rem))
		}
		atomic.AddUint64(&a.stats.ShadowStores, markSegStores(q, rem))
		rSegs := total - lSegs - q
		if rem > 0 {
			rSegs--
		}
		a.sh.Fill64(l+int((leftRZ+reserved)>>shadow.SegShift), rSegs, poisonCode(right))
		atomic.AddUint64(&a.stats.ShadowStores, uint64(lSegs+rSegs))
		return
	}
	a.sh.CopySeg(l, chunkTemplate(leftRZ, userSize, rightRZ, left, right))
	atomic.AddUint64(&a.stats.ShadowStores, uint64(total))
}

// frameTemplates memoizes whole-frame shadow images keyed by
// shadow.FrameKey.
var frameTemplates = shadow.NewTemplateTable[string](frameSlots)

// frameSegs returns the total segment count of a frame layout.
func frameSegs(rz uint64, sizes []uint64) int {
	total := 0
	for _, size := range sizes {
		if size == 0 {
			size = 1
		}
		reserved := (size + 7) &^ 7
		total += int((2*((rz+7)&^7) + reserved) >> shadow.SegShift)
	}
	return total
}

// PoisonFrame implements san.FramePoisoner: one templated stamp for a
// whole stack frame, observably identical to the per-local PoisonChunk
// loop.
func (a *Sanitizer) PoisonFrame(start vmem.Addr, rz uint64, sizes []uint64) {
	total := frameSegs(rz, sizes)
	if a.ref || total > maxTemplateSegs || len(sizes) > maxFrameLocals {
		at := start
		for _, size := range sizes {
			size = max(size, 1)
			a.PoisonChunk(at, rz, size, rz, san.StackRedzone, san.StackRedzone)
			at += vmem.Addr(rz + ((size + 7) &^ 7) + rz)
		}
		return
	}
	var keyBuf [frameKeyBytes]byte
	key := shadow.FrameKey(keyBuf[:0], rz, sizes)
	h := shadow.KeyHash(key)
	var tpl []uint8
	if e := frameTemplates.Load(h); e != nil && e.Key == string(key) {
		tpl = e.Codes
	} else {
		tpl = make([]uint8, 0, total)
		for _, size := range sizes {
			tpl = append(tpl, chunkTemplate(rz, max(size, 1), rz, san.StackRedzone, san.StackRedzone)...)
		}
		frameTemplates.Store(h, string(key), tpl)
	}
	a.sh.CopySeg(a.sh.Index(start), tpl)
	atomic.AddUint64(&a.stats.ShadowStores, uint64(total))
}
