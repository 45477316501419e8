package shadow

import (
	"fmt"
	"math/bits"

	"giantsan/internal/vmem"
)

// Copy-on-write base images. Every arena of a given runtime configuration
// starts from the *same* pristine pre-poisoned shadow. An Image captures
// that snapshot once, immutably, and every Memory is a page table over
// one: clean pages alias the image, and the first write to a page
// privatizes (materializes) a copy. Returning a Memory to pristine is
// DropOverlay, O(dirty pages), whatever the tenant allocated.
//
// Two constructors, one layout. Fork leaves every page clean, so resident
// shadow is proportional to the pages a tenant actually dirtied. New
// privatizes every page up front, the state that tolerates concurrent
// writers.
//
// Concurrency: materialize only reads the dirty bitmap once a page is
// private, so a Memory whose pages are all private (New, until its first
// DropOverlay) tolerates concurrent *disjoint* bulk writes — the
// allocators poison disjoint chunks outside their locks. A Memory with
// clean pages does not: two disjoint spans can land on the same clean
// page and race on its materialization. Forks, and any Memory after
// DropOverlay, are therefore single-goroutine by contract, which is
// exactly the service's execution model — one session, one arena, one
// worker goroutine at a time.

// PageShift is log2 of the overlay page size in segments.
const PageShift = 12

// PageSegs is the copy-on-write granularity: segments per overlay page.
// At the 1:8 shadow density one page covers 32 KiB of application memory.
const PageSegs = 1 << PageShift

// PageBytes is the size of one overlay page in shadow bytes.
const PageBytes = PageSegs

const pageMask = PageSegs - 1

// Image is an immutable pre-poisoned shadow snapshot shared by every
// Memory forked from it. Views are read-only forever; all mutation happens
// in the forks' private overlay pages.
type Image struct {
	base  vmem.Addr
	nseg  int
	views [][]uint8
}

// numPages returns the page count covering n segments.
func numPages(n int) int { return (n + PageSegs - 1) >> PageShift }

// pageLen returns the length of page pg over n total segments (the last
// page may be partial).
func pageLen(pg, n int) int {
	if l := n - pg<<PageShift; l < PageSegs {
		return l
	}
	return PageSegs
}

// NewUniformImage returns the image of a shadow uniformly holding code —
// the pristine state every sanitizer constructor in this module lays down.
// Uniformity makes the snapshot almost free: all full pages share one
// backing page, so the image costs one page regardless of the arena size
// it covers.
func NewUniformImage(base vmem.Addr, numSegs int, code uint8) *Image {
	if numSegs <= 0 {
		panic(fmt.Sprintf("shadow: image over %d segments", numSegs))
	}
	page := make([]uint8, PageSegs)
	for i := range page {
		page[i] = code
	}
	np := numPages(numSegs)
	views := make([][]uint8, np)
	for pg := range views {
		views[pg] = page[:pageLen(pg, numSegs):pageLen(pg, numSegs)]
	}
	return &Image{base: base, nseg: numSegs, views: views}
}

// Base returns the base address the image covers.
func (img *Image) Base() vmem.Addr { return img.base }

// NumSegments returns the number of segments the image covers.
func (img *Image) NumSegments() int { return img.nseg }

// Fork returns a Memory whose every page aliases img: construction is
// O(pages) pointer copies, no shadow bytes are written or owned until the
// fork is mutated. See the note above for the single-goroutine contract
// clean pages carry.
func Fork(img *Image) *Memory {
	pages := make([][]uint8, len(img.views))
	copy(pages, img.views)
	return &Memory{
		base:  img.base,
		nseg:  img.nseg,
		img:   img,
		pages: pages,
		dirty: make([]uint64, (len(pages)+63)/64),
	}
}

// New returns a Memory showing img with every page already private: one
// contiguous allocation holding a copy of the image, sliced into the page
// table. It reads and writes exactly like a Fork of img; it differs only
// in residency (OverlayStats reports every page) and in tolerating
// concurrent disjoint writers until its first DropOverlay.
func New(img *Image) *Memory {
	m := Fork(img)
	buf := make([]uint8, img.nseg)
	for pg, view := range img.views {
		lo := pg << PageShift
		priv := buf[lo : lo+len(view) : lo+len(view)]
		copy(priv, view)
		m.pages[pg] = priv
		m.dirty[pg>>6] |= 1 << (pg & 63)
	}
	m.dirtyPages, m.dirtyBytes = len(img.views), img.nseg
	return m
}

// OverlayStats reports the overlay's footprint: privatized (dirty) page
// count and their resident shadow bytes. Both are zero for a fresh Fork
// and right after DropOverlay — the measure of "memory proportional to
// what the tenant dirtied" — and cover the whole shadow for a fresh New.
func (m *Memory) OverlayStats() (pages int, bytes int) {
	return m.dirtyPages, m.dirtyBytes
}

// DropOverlay releases every privatized page back to the base image,
// returning the Memory to the pristine state in O(dirty pages). Afterwards
// every page is clean, as in a fresh Fork.
func (m *Memory) DropOverlay() {
	for w, word := range m.dirty {
		for word != 0 {
			pg := w<<6 + bits.TrailingZeros64(word)
			m.pages[pg] = m.img.views[pg]
			word &= word - 1
		}
		m.dirty[w] = 0
	}
	m.dirtyPages, m.dirtyBytes = 0, 0
}

// materialize privatizes page pg (first write), copying the image codes it
// currently shows, and returns the writable page.
func (m *Memory) materialize(pg int) []uint8 {
	if m.dirty[pg>>6]&(1<<(pg&63)) == 0 {
		priv := make([]uint8, len(m.pages[pg]))
		copy(priv, m.pages[pg])
		m.pages[pg] = priv
		m.dirty[pg>>6] |= 1 << (pg & 63)
		m.dirtyPages++
		m.dirtyBytes += len(priv)
	}
	return m.pages[pg]
}
