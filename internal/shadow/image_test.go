package shadow

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"giantsan/internal/vmem"
)

// Multi-page geometry for the overlay tests: 256 KiB of application space
// is 32768 segments = 8 overlay pages.
func multiPageSpace() *vmem.Space { return vmem.NewSpace(1 << 18) }

func TestUniformImageSharesOneBackingPage(t *testing.T) {
	sp := multiPageSpace()
	img := NewUniformImage(sp.Base(), int(sp.Size()>>SegShift), 0xFE)
	if img.NumSegments() != 32768 || len(img.views) != 8 {
		t.Fatalf("geometry: %d segments, %d views", img.NumSegments(), len(img.views))
	}
	for pg := 1; pg < len(img.views); pg++ {
		if &img.views[pg][0] != &img.views[0][0] {
			t.Errorf("page %d does not alias the shared backing page", pg)
		}
	}
	// A partial tail page still shows the code.
	odd := NewUniformImage(sp.Base(), PageSegs+5, 0x3C)
	if len(odd.views) != 2 || len(odd.views[1]) != 5 {
		t.Fatalf("tail geometry: %d views, tail len %d", len(odd.views), len(odd.views[1]))
	}
	m := Fork(odd)
	if m.LoadSeg(PageSegs+4) != 0x3C {
		t.Error("tail segment does not show the image code")
	}
}

func TestForkReadsImageWithoutResidency(t *testing.T) {
	sp := multiPageSpace()
	img := NewUniformImage(sp.Base(), int(sp.Size()>>SegShift), 0xFE)
	m := Fork(img)
	for _, p := range []int{0, 1, PageSegs - 1, PageSegs, m.NumSegments() - 1} {
		if got := m.LoadSeg(p); got != 0xFE {
			t.Errorf("segment %d = %#x, want the image code", p, got)
		}
	}
	if m.Load(sp.Base()) != 0xFE || m.LoadUnchecked(sp.Base()+64) != 0xFE {
		t.Error("address-keyed reads diverge from the image")
	}
	if pages, b := m.OverlayStats(); pages != 0 || b != 0 {
		t.Errorf("pristine fork resident: %d pages, %d bytes", pages, b)
	}
}

func TestForkWriteMaterializesOnlyTouchedPages(t *testing.T) {
	sp := multiPageSpace()
	img := NewUniformImage(sp.Base(), int(sp.Size()>>SegShift), 0xFE)
	m := Fork(img)
	other := Fork(img)

	m.StoreSeg(10, 0x01)
	if pages, b := m.OverlayStats(); pages != 1 || b != PageBytes {
		t.Fatalf("after one store: %d pages, %d bytes", pages, b)
	}
	m.StoreSeg(11, 0x02) // same page: no new residency
	if pages, _ := m.OverlayStats(); pages != 1 {
		t.Fatalf("same-page store materialized again: %d pages", pages)
	}
	m.Fill64(3*PageSegs+7, 2*PageSegs, 0x55) // spans pages 3, 4, 5
	if pages, _ := m.OverlayStats(); pages != 4 {
		t.Fatalf("after span fill: %d pages resident, want 4", pages)
	}
	// Sibling fork and the image itself stay pristine.
	if other.LoadSeg(10) != 0xFE || other.LoadSeg(3*PageSegs+7) != 0xFE {
		t.Error("sibling fork sees this fork's writes")
	}
	if op, ob := other.OverlayStats(); op != 0 || ob != 0 {
		t.Error("sibling fork gained residency")
	}
	// Untouched pages in the written fork still read through.
	if m.LoadSeg(PageSegs+1) != 0xFE {
		t.Error("clean page no longer reads the image")
	}
}

func TestDropOverlayRestoresPristine(t *testing.T) {
	sp := multiPageSpace()
	nseg := int(sp.Size() >> SegShift)
	img := NewUniformImage(sp.Base(), nseg, 0xFE)
	m := Fork(img)
	m.Fill(100, 3*PageSegs, 0xAA)
	m.StoreWide(nseg-WideSegs, 0x1122334455667788)
	if pages, _ := m.OverlayStats(); pages == 0 {
		t.Fatal("no pages dirtied")
	}
	m.DropOverlay()
	if pages, b := m.OverlayStats(); pages != 0 || b != 0 {
		t.Fatalf("after drop: %d pages, %d bytes resident", pages, b)
	}
	fresh := Fork(img)
	if !bytes.Equal(m.Snapshot(0, nseg), fresh.Snapshot(0, nseg)) {
		t.Fatal("dropped fork is not byte-identical to a fresh fork")
	}
	// The fork is reusable: writing after a drop materializes again.
	m.StoreSeg(0, 0x01)
	if m.LoadSeg(0) != 0x01 || fresh.LoadSeg(0) != 0xFE {
		t.Error("post-drop write broken or leaked")
	}
	// An all-private memory drops to the same clean state.
	n := New(img)
	if pages, b := n.OverlayStats(); pages != numPages(nseg) || b != nseg {
		t.Fatalf("New resident: %d pages, %d bytes; want every page", pages, b)
	}
	n.Fill64(5, 2*PageSegs, 0x33)
	n.DropOverlay()
	if pages, b := n.OverlayStats(); pages != 0 || b != 0 {
		t.Fatalf("New after drop: %d pages, %d bytes resident", pages, b)
	}
	if !bytes.Equal(n.Snapshot(0, nseg), fresh.Snapshot(0, nseg)) {
		t.Fatal("dropped New is not byte-identical to a fresh fork")
	}
}

// TestForkMatchesDense is the overlay's differential suite: the same
// operation sequence applied to a dense Memory (New: every page private
// from the start) and to a lazy Fork of the same image must produce
// byte-identical shadows at every probe point, across every writer and
// both wide readers.
func TestForkMatchesDense(t *testing.T) {
	sp := multiPageSpace()
	nseg := int(sp.Size() >> SegShift)
	img := NewUniformImage(sp.Base(), nseg, 0xFE)
	dense := New(img)
	fork := Fork(img)

	rng := rand.New(rand.NewSource(8))
	span := func() (int, int) {
		p := rng.Intn(nseg)
		n := rng.Intn(3 * PageSegs)
		if p+n > nseg {
			n = nseg - p
		}
		return p, n
	}
	for step := 0; step < 2000; step++ {
		v := uint8(rng.Intn(256))
		switch rng.Intn(7) {
		case 0:
			p, n := span()
			dense.Fill(p, n, v)
			fork.Fill(p, n, v)
		case 1:
			p, n := span()
			dense.Fill64(p, n, v)
			fork.Fill64(p, n, v)
		case 2:
			p := rng.Intn(nseg)
			dense.StoreSeg(p, v)
			fork.StoreSeg(p, v)
		case 3:
			p := rng.Intn(nseg - WideSegs + 1)
			w := rng.Uint64()
			dense.StoreWide(p, w)
			fork.StoreWide(p, w)
		case 4:
			p, n := span()
			if n > 512 {
				n = 512
			}
			tpl := make([]uint8, n)
			rng.Read(tpl)
			dense.CopySeg(p, tpl)
			fork.CopySeg(p, tpl)
		case 5:
			// An unaligned address span, rounded out to the segments it
			// overlaps.
			a := sp.Base() + vmem.Addr(rng.Intn(int(sp.Size())/2))
			size := uint64(rng.Intn(int(sp.Size())/2-1) + 1)
			l := dense.Index(a)
			n := dense.Index(a+vmem.Addr(size)-1) - l + 1
			dense.Fill64(l, n, v)
			fork.Fill64(l, n, v)
		case 6:
			p := rng.Intn(nseg - WideSegs + 1)
			if dw, fw := dense.LoadWide(p), fork.LoadWide(p); dw != fw {
				t.Fatalf("step %d: LoadWide(%d) dense %#x fork %#x", step, p, dw, fw)
			}
		}
		p := rng.Intn(nseg)
		if dv, fv := dense.LoadSeg(p), fork.LoadSeg(p); dv != fv {
			t.Fatalf("step %d: segment %d dense %#x fork %#x", step, p, dv, fv)
		}
	}
	if !bytes.Equal(dense.Snapshot(0, nseg), fork.Snapshot(0, nseg)) {
		t.Fatal("final shadows diverge")
	}
	// Every page-straddling LoadWide position agrees too.
	for pg := 1; pg < numPages(nseg); pg++ {
		for p := pg<<PageShift - WideSegs + 1; p < pg<<PageShift; p++ {
			if dw, fw := dense.LoadWide(p), fork.LoadWide(p); dw != fw {
				t.Fatalf("straddle LoadWide(%d): dense %#x fork %#x", p, dw, fw)
			}
		}
	}
}

// TestNewToleratesConcurrentDisjointWriters pins the concurrency contract
// the allocators rely on when they poison outside their locks: on a New
// memory (every page private), goroutines writing disjoint spans — which
// share pages, since the span boundaries fall mid-page — must leave
// exactly the shadow a serial run of the same writes leaves. Run with
// -race to check that no writer touches shared page-table state.
func TestNewToleratesConcurrentDisjointWriters(t *testing.T) {
	sp := multiPageSpace()
	nseg := int(sp.Size() >> SegShift)
	img := NewUniformImage(sp.Base(), nseg, 0xFE)
	const writers = 6
	type op struct {
		kind, p, n int
		v          uint8
		w          uint64
		tpl        []uint8
	}
	ops := make([][]op, writers)
	for g := range ops {
		lo, hi := g*nseg/writers, (g+1)*nseg/writers
		rng := rand.New(rand.NewSource(int64(g)))
		for i := 0; i < 200; i++ {
			p := lo + rng.Intn(hi-lo-WideSegs)
			n := min(rng.Intn(PageSegs), hi-p)
			o := op{kind: rng.Intn(3), p: p, n: n, v: uint8(rng.Intn(256)), w: rng.Uint64()}
			if o.kind == 1 {
				o.tpl = make([]uint8, min(n, 512))
				rng.Read(o.tpl)
			}
			ops[g] = append(ops[g], o)
		}
	}
	apply := func(m *Memory, ops []op) {
		for _, o := range ops {
			switch o.kind {
			case 0:
				m.Fill64(o.p, o.n, o.v)
			case 1:
				m.CopySeg(o.p, o.tpl)
			case 2:
				m.StoreWide(o.p, o.w)
			}
		}
	}

	serial := New(img)
	for _, o := range ops {
		apply(serial, o)
	}
	concurrent := New(img)
	var wg sync.WaitGroup
	for g := range ops {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			apply(concurrent, ops[g])
		}(g)
	}
	wg.Wait()
	if !bytes.Equal(serial.Snapshot(0, nseg), concurrent.Snapshot(0, nseg)) {
		t.Fatal("concurrent disjoint writers diverge from the serial run")
	}
}
