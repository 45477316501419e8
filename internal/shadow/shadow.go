// Package shadow implements the shadow memory substrate shared by every
// location-based sanitizer in this module.
//
// The virtual space is partitioned into aligned 8-byte segments and each
// segment owns one shadow byte, the classic 1:8 density used by ASan and
// kept by GiantSan. The package is encoding-agnostic: it stores raw state
// codes and leaves their interpretation to the sanitizer packages
// (internal/asan, internal/core). That split mirrors the paper, where the
// shadow mapping is shared infrastructure and only the encoding changes.
//
// A Memory is a page table over an immutable base Image (see image.go):
// the pristine pre-poisoned snapshot a sanitizer instance starts from.
// Clean pages alias the image; the first write to a page privatizes a
// copy. Real ASan and GiantSan reserve the shadow with mmap and let the
// kernel fill it in lazily page by page, so the copy-on-write page table
// is the faithful model, not an approximation. Fork builds a Memory whose
// pages are all clean — every rt.Env's shadow, resident in proportion to
// what its tenant dirtied, and single-goroutine. New builds one whose
// pages are all private up front, which tolerates concurrent disjoint
// writers until its first DropOverlay; it exists for heap's concurrent
// thread-cache tests and for tools that want a dense shadow.
package shadow

import (
	"encoding/binary"
	"fmt"

	"giantsan/internal/vmem"
)

// SegShift is log2 of the segment size: segments are 8 bytes.
const SegShift = 3

// SegSize is the number of application bytes covered by one shadow byte.
const SegSize = 1 << SegShift

// Memory is the shadow array for one vmem.Space.
//
// Loads go through Load so that callers that care about metadata-loading
// cost can count them; the hot sanitizer paths use Load exactly once per
// conceptual "shadow memory read" in the paper's algorithms.
type Memory struct {
	base vmem.Addr // base address of the covered space
	nseg int       // total segments covered
	// Per-page views into either the base image or privatized copies,
	// plus the dirty-page bitmap. See image.go.
	img        *Image
	pages      [][]uint8
	dirty      []uint64
	dirtyPages int
	dirtyBytes int
}

// Base returns the base address of the covered space.
func (m *Memory) Base() vmem.Addr { return m.base }

// NumSegments returns the number of segments covered.
func (m *Memory) NumSegments() int { return m.nseg }

// Index returns the segment index of address a.
func (m *Memory) Index(a vmem.Addr) int {
	i := int((a - m.base) >> SegShift)
	if a < m.base || i >= m.nseg {
		panic(fmt.Sprintf("shadow: address %#x outside covered space", a))
	}
	return i
}

// Contains reports whether address a lies in the covered space.
func (m *Memory) Contains(a vmem.Addr) bool {
	return a >= m.base && (a-m.base)>>SegShift < vmem.Addr(m.nseg)
}

// Load returns the state code of the segment covering address a.
func (m *Memory) Load(a vmem.Addr) uint8 { return m.CodeAt(m.Index(a)) }

// LoadSeg returns the state code of segment index p.
func (m *Memory) LoadSeg(p int) uint8 { return m.CodeAt(p) }

// Store sets the state code of the segment covering address a.
func (m *Memory) Store(a vmem.Addr, v uint8) { m.StoreSeg(m.Index(a), v) }

// Unchecked hot-path accessors. The checked accessors above panic on wild
// addresses, which is the right default for allocators and tools; the
// sanitizer check paths establish bounds once per check and then must not
// pay a second, per-load classification. Callers of everything below own
// the bounds proof.

// CodeAt returns the state code of segment index p without the
// covered-space classification — the hot read primitive the check paths
// build on. p must be below NumSegments. One page-table read: clean pages
// serve the shared base image.
func (m *Memory) CodeAt(p int) uint8 {
	return m.pages[p>>PageShift][p&pageMask]
}

// LoadUnchecked returns the state code of the segment covering a without
// the covered-space check. a must satisfy Contains(a).
func (m *Memory) LoadUnchecked(a vmem.Addr) uint8 {
	return m.CodeAt(int((a - m.base) >> SegShift))
}

// WideSegs is the number of segments one LoadWide covers.
const WideSegs = 8

// LoadWide returns the codes of the 8 consecutive segments starting at
// segment index p, packed little-endian (segment p is the low byte). One
// machine load stands in for 8 segment loads — the trick ASan's real
// guardian uses to scan mid-range shadow 8 segments at a time (a zero word
// means 8 fully addressable segments under ASan's encoding). p+8 must not
// exceed NumSegments.
func (m *Memory) LoadWide(p int) uint64 {
	if Debug {
		m.assertSpan("LoadWide", p, WideSegs)
	}
	page := m.pages[p>>PageShift]
	if off := p & pageMask; off+WideSegs <= len(page) {
		return binary.LittleEndian.Uint64(page[off:])
	}
	// The word straddles a page boundary: assemble byte-wise (rare — only
	// 8-of-PageSegs positions per page can land here).
	var w uint64
	for i := 0; i < WideSegs; i++ {
		w |= uint64(m.CodeAt(p+i)) << (8 * i)
	}
	return w
}

// StoreSeg sets the state code of segment index p.
func (m *Memory) StoreSeg(p int, v uint8) {
	m.materialize(p >> PageShift)[p&pageMask] = v
}

// Debug gates the span assertions on the bulk accessors (Fill, Fill64,
// LoadWide, StoreWide, CopySeg). Unlike the per-segment read side — where
// CodeAt and LoadUnchecked skip classification because per-load
// classification is the hot cost — the bulk routines pay one comparison
// pair per *call*, negligible next to the bytes they move, so the
// assertions default to on. Without them a negative n is accepted
// silently by the word-stepping writers (the loop simply never runs),
// hiding an allocator arithmetic bug behind a no-op, and a short
// LoadWide would fail as a bare slice-bounds panic instead of naming the
// offending span.
var Debug = true

// assertSpan panics when [p, p+n) is not a valid segment span.
func (m *Memory) assertSpan(op string, p, n int) {
	if n < 0 || p < 0 || p+n > m.nseg {
		panic(fmt.Sprintf("shadow: %s span [%d, %d+%d) outside the %d covered segments", op, p, p, n, m.nseg))
	}
}

// Fill sets n consecutive segments starting at segment index p to v, one
// byte store per segment. This is the reference writer; the fast lanes use
// Fill64/CopySeg below.
func (m *Memory) Fill(p, n int, v uint8) {
	if Debug {
		m.assertSpan("Fill", p, n)
	}
	for n > 0 {
		dst := m.materialize(p >> PageShift)[p&pageMask:]
		dst = dst[:min(len(dst), n)]
		for i := range dst {
			dst[i] = v
		}
		p, n = p+len(dst), n-len(dst)
	}
}

// Fill64 sets n consecutive segments starting at segment index p to v,
// retiring 8 shadow bytes per machine store: the interior is written as
// 64-bit words of the repeated code, with byte stores only for the
// sub-word tail. It is the write-side twin of LoadWide and must produce
// exactly the bytes Fill produces.
func (m *Memory) Fill64(p, n int, v uint8) {
	if Debug {
		m.assertSpan("Fill64", p, n)
	}
	word := uint64(v) * 0x0101010101010101
	for n > 0 {
		dst := m.materialize(p >> PageShift)[p&pageMask:]
		dst = dst[:min(len(dst), n)]
		p, n = p+len(dst), n-len(dst)
		for len(dst) >= 8 {
			binary.LittleEndian.PutUint64(dst, word)
			dst = dst[8:]
		}
		for i := range dst {
			dst[i] = v
		}
	}
}

// StoreWide sets the codes of the 8 consecutive segments starting at
// segment index p from one packed little-endian word (segment p takes the
// low byte) — the store dual of LoadWide. p+8 must not exceed NumSegments.
func (m *Memory) StoreWide(p int, w uint64) {
	if Debug {
		m.assertSpan("StoreWide", p, WideSegs)
	}
	var buf [WideSegs]uint8
	binary.LittleEndian.PutUint64(buf[:], w)
	m.copySegs(p, buf[:])
}

// CopySeg stamps the template codes into the segments starting at segment
// index p — one memmove instead of len(codes) segment stores. This is how
// the precomputed fold templates reach the shadow.
func (m *Memory) CopySeg(p int, codes []uint8) {
	if Debug {
		m.assertSpan("CopySeg", p, len(codes))
	}
	m.copySegs(p, codes)
}

// copySegs copies codes into the segments starting at p, one page run at
// a time.
func (m *Memory) copySegs(p int, codes []uint8) {
	for len(codes) > 0 {
		k := copy(m.materialize(p >> PageShift)[p&pageMask:], codes)
		p, codes = p+k, codes[k:]
	}
}

// Snapshot copies the state codes of n segments starting at segment p.
// It exists for tests, digests, the shadowviz tool, and any caller that
// needs a contiguous view of the paged shadow.
func (m *Memory) Snapshot(p, n int) []uint8 {
	if p < 0 || n < 0 || p+n > m.nseg {
		panic(fmt.Sprintf("shadow: Snapshot span [%d, %d+%d) outside the %d covered segments", p, p, n, m.nseg))
	}
	out := make([]uint8, n)
	for off := 0; off < n; {
		i := p + off
		off += copy(out[off:], m.pages[i>>PageShift][i&pageMask:])
	}
	return out
}

// SegStart returns the first address of segment index p.
func (m *Memory) SegStart(p int) vmem.Addr {
	return m.base + vmem.Addr(p)<<SegShift
}
