package core

import (
	"sync/atomic"

	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// The allocation-path fast lane. GiantSan's folded encoding makes checks
// cheap but moves cost onto metadata construction: every malloc rebuilds
// the Figure 5 fold ladder and poisons two redzones, every free rewrites
// the freed run (the shadow-update overhead the paper concedes on
// allocation-heavy workloads, §6). The fold ladder for q good segments
// depends only on q — never on the base address — and allocators recycle a
// small set of (size, redzone) classes, so this file memoizes
// whole-chunk/whole-frame shadow images once per class and stamps them
// with copy() instead of recomputing per allocation. Segment j of a
// q-segment ladder has degree ⌊log2(q−j)⌋, a function of q−j alone, so
// every ladder is a suffix of one precomputed foldLadder. The chunk and frame
// caches are package-global (the encoding is fixed by Definition 1, so
// templates are shareable across every Sanitizer instance), lock-free and
// bounded: each is a direct-mapped shadow.TemplateTable with a fixed slot
// count, so a hit is one atomic load and one compare, and hostile input (a
// replay that frees and mallocs thousands of distinct sizes) can evict but
// never grow them. A template is at most maxTemplateSegs bytes of codes
// plus an entry and key of under 128 bytes, so the worst case retained is
// about
//
//	chunkTemplates  1024 slots × 8 KiB ≈ 8 MiB
//	frameTemplates   256 slots × 8 KiB ≈ 2 MiB (keys under 64 bytes)
//
// about 10 MiB per process (asan's twin tables add as much), against the
// few KiB a workload's handful of size classes actually uses.
//
// Everything here must stay byte-identical — shadow content and Stats — to
// the reference writers in sanitizer.go; the poisoner differential suite
// enforces that for every size class, alignment and poison kind.

// maxTemplateSegs bounds memoized template length (8 KiB of codes = 64 KiB
// object spans). Beyond it the fast lane degrades to word-wide run fills:
// giant allocations are rare and bandwidth-bound, so a template would only
// bloat the cache.
const maxTemplateSegs = 1 << 13

// Slot counts of the template tables: constants, so the worst case above
// holds whatever the configuration.
const (
	chunkSlots = 1024
	frameSlots = 256
	// maxFrameLocals bounds a memoized frame; a frame with more locals is
	// stamped local by local through chunkTemplates. Within
	// maxTemplateSegs every local size and the redzone are below 2^17,
	// three uvarint bytes each, so a memoized frame's key always fits
	// frameKeyBytes.
	maxFrameLocals = 20
	frameKeyBytes  = 3 * (1 + maxFrameLocals)
)

// foldLadder is the Figure 5 fold ladder of maxTemplateSegs good
// segments: foldLadder[i] = FoldedCode(DegreeAt(maxTemplateSegs, i)).
var foldLadder = func() []uint8 {
	l := make([]uint8, maxTemplateSegs)
	for i := range l {
		l[i] = FoldedCode(DegreeAt(maxTemplateSegs, i))
	}
	return l
}()

// ladderTemplate returns the fold ladder for q ≤ maxTemplateSegs full
// segments, ladder[j] = FoldedCode(DegreeAt(q, j)) — exactly the codes
// MarkAllocatedRef's run fills produce. It is shared and read-only.
func ladderTemplate(q int) []uint8 { return foldLadder[maxTemplateSegs-q:] }

// markSegsFast writes the allocated-region codes (q-segment ladder plus
// optional rem-byte partial tail) starting at segment l, from foldLadder
// or — past its length — word-wide run fills.
func (g *Sanitizer) markSegsFast(l, q, rem int) {
	if q > 0 {
		if q <= maxTemplateSegs {
			g.sh.CopySeg(l, ladderTemplate(q))
		} else {
			j := 0
			for j < q {
				d := DegreeAt(q, j)
				runLen := q - (1 << d) - j + 1
				g.sh.Fill64(l+j, runLen, FoldedCode(d))
				j += runLen
			}
		}
	}
	if rem > 0 {
		g.sh.StoreSeg(l+q, PartialCode(rem))
	}
	atomic.AddUint64(&g.stats.ShadowStores, markSegStores(q, rem))
}

// chunkTemplates memoizes whole-chunk shadow images keyed by
// shadow.ChunkKey.
var chunkTemplates = shadow.NewTemplateTable[uint64](chunkSlots)

// chunkSegs returns the segment geometry of a chunk layout: left redzone,
// user ladder, partial tail, right redzone.
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
	copy(tpl[lSegs:], ladderTemplate(q))
	p := lSegs + q
	if rem > 0 {
		tpl[p] = PartialCode(rem)
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
// whole [left redzone][user region][right redzone] layout, observably
// identical to the three-call reference sequence it replaces.
func (g *Sanitizer) PoisonChunk(start vmem.Addr, leftRZ, userSize, rightRZ uint64, left, right san.PoisonKind) {
	reserved := (userSize + 7) &^ 7
	if g.ref {
		g.PoisonRef(start, leftRZ, left)
		g.MarkAllocatedRef(start+vmem.Addr(leftRZ), userSize)
		g.PoisonRef(start+vmem.Addr(leftRZ+reserved), rightRZ, right)
		return
	}
	lSegs, q, rem, total := chunkSegs(leftRZ, userSize, rightRZ)
	l := g.sh.Index(start)
	if total > maxTemplateSegs {
		// Oversized chunk: compose the word-wide piecewise writers.
		g.sh.Fill64(l, lSegs, poisonCode(left))
		g.markSegsFast(l+lSegs, q, rem)
		rSegs := total - lSegs - q
		if rem > 0 {
			rSegs--
		}
		g.sh.Fill64(l+int((leftRZ+reserved)>>shadow.SegShift), rSegs, poisonCode(right))
		atomic.AddUint64(&g.stats.ShadowStores, uint64(lSegs+rSegs))
		return
	}
	g.sh.CopySeg(l, chunkTemplate(leftRZ, userSize, rightRZ, left, right))
	atomic.AddUint64(&g.stats.ShadowStores, uint64(total))
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
// whole stack frame of locals, observably identical to the per-local
// PoisonChunk loop (and thus to the per-local reference sequence).
func (g *Sanitizer) PoisonFrame(start vmem.Addr, rz uint64, sizes []uint64) {
	total := frameSegs(rz, sizes)
	if g.ref || total > maxTemplateSegs || len(sizes) > maxFrameLocals {
		a := start
		for _, size := range sizes {
			size = max(size, 1)
			g.PoisonChunk(a, rz, size, rz, san.StackRedzone, san.StackRedzone)
			a += vmem.Addr(rz + ((size + 7) &^ 7) + rz)
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
	g.sh.CopySeg(g.sh.Index(start), tpl)
	atomic.AddUint64(&g.stats.ShadowStores, uint64(total))
}
