package shadow

import (
	"strings"
	"testing"

	"giantsan/internal/vmem"
)

// newZeroed returns an all-private Memory over sp holding code 0.
func newZeroed(sp *vmem.Space) *Memory {
	return New(NewUniformImage(sp.Base(), int(sp.Size()>>SegShift), 0))
}

func TestGeometry(t *testing.T) {
	sp := vmem.NewSpace(1 << 12)
	m := newZeroed(sp)
	if m.NumSegments() != 512 {
		t.Errorf("NumSegments = %d, want 512", m.NumSegments())
	}
	if m.Base() != sp.Base() {
		t.Errorf("Base = %#x, want %#x", m.Base(), sp.Base())
	}
}

func TestIndexMapping(t *testing.T) {
	sp := vmem.NewSpace(1 << 12)
	m := newZeroed(sp)
	for _, tt := range []struct {
		off  uint64
		want int
	}{{0, 0}, {7, 0}, {8, 1}, {15, 1}, {4095, 511}} {
		if got := m.Index(sp.Base() + tt.off); got != tt.want {
			t.Errorf("Index(base+%d) = %d, want %d", tt.off, got, tt.want)
		}
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	sp := vmem.NewSpace(64)
	m := newZeroed(sp)
	for _, a := range []vmem.Addr{sp.Base() - 1, sp.Limit()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%#x) did not panic", a)
				}
			}()
			m.Index(a)
		}()
	}
}

func TestLoadStore(t *testing.T) {
	sp := vmem.NewSpace(128)
	m := newZeroed(sp)
	a := sp.Base() + 24
	m.Store(a, 0x42)
	if got := m.Load(a); got != 0x42 {
		t.Errorf("Load = %#x, want 0x42", got)
	}
	// All 8 addresses of the segment share the code.
	for i := uint64(0); i < 8; i++ {
		if m.Load(sp.Base()+24+i) != 0x42 {
			t.Errorf("segment byte %d has different code", i)
		}
	}
	if m.Load(sp.Base()+16) != 0 || m.Load(sp.Base()+32) != 0 {
		t.Error("neighbouring segments were touched")
	}
}

func TestFillAndSnapshot(t *testing.T) {
	sp := vmem.NewSpace(128)
	m := newZeroed(sp)
	m.Fill(2, 5, 7)
	snap := m.Snapshot(1, 8)
	want := []uint8{0, 7, 7, 7, 7, 7, 0, 0}
	for i := range want {
		if snap[i] != want[i] {
			t.Errorf("Snapshot[%d] = %d, want %d", i, snap[i], want[i])
		}
	}
}

// TestFill64MatchesFill pins the word-stepping writer to the reference
// byte-loop writer over every start offset and length that matters for
// word alignment: interiors, sub-word tails, and spans shorter than one
// word.
func TestFill64MatchesFill(t *testing.T) {
	sp := vmem.NewSpace(1 << 10)
	for p := 0; p < 16; p++ {
		for n := 0; n <= 40; n++ {
			a, b := newZeroed(sp), newZeroed(sp)
			a.Fill(0, a.NumSegments(), 0x11)
			b.Fill64(0, b.NumSegments(), 0x11)
			a.Fill(p, n, 0x2a)
			b.Fill64(p, n, 0x2a)
			for i := 0; i < a.NumSegments(); i++ {
				if a.LoadSeg(i) != b.LoadSeg(i) {
					t.Fatalf("Fill64(%d,%d): segment %d = %#x, Fill wrote %#x",
						p, n, i, b.LoadSeg(i), a.LoadSeg(i))
				}
			}
		}
	}
}

func TestStoreWideLoadWideRoundTrip(t *testing.T) {
	sp := vmem.NewSpace(256)
	m := newZeroed(sp)
	const w = uint64(0x0807060504030201)
	m.StoreWide(3, w)
	if got := m.LoadWide(3); got != w {
		t.Errorf("LoadWide = %#x, want %#x", got, w)
	}
	// Segment 3 took the low byte; neighbours are untouched.
	for i, want := range []uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 0} {
		if got := m.LoadSeg(2 + i); got != want {
			t.Errorf("segment %d = %d, want %d", 2+i, got, want)
		}
	}
}

func TestCopySeg(t *testing.T) {
	sp := vmem.NewSpace(256)
	m := newZeroed(sp)
	tpl := []uint8{9, 8, 7, 6, 5}
	m.CopySeg(4, tpl)
	snap := m.Snapshot(3, 7)
	want := []uint8{0, 9, 8, 7, 6, 5, 0}
	for i := range want {
		if snap[i] != want[i] {
			t.Errorf("Snapshot[%d] = %d, want %d", i, snap[i], want[i])
		}
	}
}

// TestBulkWriterSpanAssertions is the regression test for the n < 0
// contract: every bulk writer must reject an invalid span with a clear
// panic instead of silently writing nothing (the word-stepping loops would
// otherwise simply not run).
func TestBulkWriterSpanAssertions(t *testing.T) {
	sp := vmem.NewSpace(256)
	m := newZeroed(sp)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "shadow: ") {
				t.Errorf("%s panicked with %v, want a shadow span message", name, r)
			}
		}()
		fn()
	}
	mustPanic("Fill(n<0)", func() { m.Fill(4, -1, 7) })
	mustPanic("Fill64(n<0)", func() { m.Fill64(4, -3, 7) })
	mustPanic("Fill(p<0)", func() { m.Fill(-2, 4, 7) })
	mustPanic("Fill64(past end)", func() { m.Fill64(m.NumSegments()-2, 4, 7) })
	mustPanic("StoreWide(past end)", func() { m.StoreWide(m.NumSegments()-7, 1) })
	mustPanic("CopySeg(past end)", func() { m.CopySeg(m.NumSegments()-2, []uint8{1, 2, 3}) })
	mustPanic("LoadWide(past end)", func() { m.LoadWide(m.NumSegments() - 7) })
	mustPanic("LoadWide(p<0)", func() { m.LoadWide(-1) })
}

// TestBulkAssertionsGatedByDebug pins what the Debug flag actually gates:
// with assertions off, a negative span is the documented silent no-op (the
// word-stepping loops simply never run) rather than a panic. The in-bounds
// behaviour of every accessor is identical either way.
func TestBulkAssertionsGatedByDebug(t *testing.T) {
	defer func(d bool) { Debug = d }(Debug)
	Debug = false
	sp := vmem.NewSpace(256)
	m := newZeroed(sp)
	m.Fill(4, -1, 7)   // must not panic
	m.Fill64(4, -3, 7) // must not panic
	for i := 0; i < m.NumSegments(); i++ {
		if m.LoadSeg(i) != 0 {
			t.Fatalf("negative-span fill wrote segment %d", i)
		}
	}
	m.StoreWide(0, 0x0102030405060708)
	if got := m.LoadWide(0); got != 0x0102030405060708 {
		t.Errorf("LoadWide with Debug off = %#x", got)
	}
}

func TestSegStart(t *testing.T) {
	sp := vmem.NewSpace(128)
	m := newZeroed(sp)
	if got := m.SegStart(3); got != sp.Base()+24 {
		t.Errorf("SegStart(3) = %#x, want %#x", got, sp.Base()+24)
	}
	if m.Index(m.SegStart(15)) != 15 {
		t.Error("SegStart and Index do not round-trip")
	}
}
