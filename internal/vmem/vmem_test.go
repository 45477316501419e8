package vmem

import (
	"testing"
	"testing/quick"
)

func TestNewSpaceValidation(t *testing.T) {
	for _, size := range []uint64{0, 7, 9, 1001} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", size)
				}
			}()
			NewSpace(size)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSpaceAt with unaligned base did not panic")
			}
		}()
		NewSpaceAt(0x10001, 64)
	}()
}

func TestSpaceGeometry(t *testing.T) {
	s := NewSpaceAt(0x20000, 4096)
	if s.Base() != 0x20000 {
		t.Errorf("Base = %#x, want 0x20000", s.Base())
	}
	if s.Size() != 4096 {
		t.Errorf("Size = %d, want 4096", s.Size())
	}
	if s.Limit() != 0x21000 {
		t.Errorf("Limit = %#x, want 0x21000", s.Limit())
	}
}

func TestContains(t *testing.T) {
	s := NewSpaceAt(0x10000, 64)
	tests := []struct {
		a    Addr
		n    uint64
		want bool
	}{
		{0x10000, 64, true},
		{0x10000, 65, false},
		{0x10000, 0, true},
		{0x0fff8, 8, false},
		{0x1003f + 1, 1, false},
		{0x1003f, 1, true},
		{0x10040, 0, true},
		{0x10020, 32, true},
		{0x10020, 33, false},
	}
	for _, tt := range tests {
		if got := s.Contains(tt.a, tt.n); got != tt.want {
			t.Errorf("Contains(%#x, %d) = %v, want %v", tt.a, tt.n, got, tt.want)
		}
	}
}

func TestWildAccessPanics(t *testing.T) {
	s := NewSpace(64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-space Load8 did not panic")
		}
	}()
	s.Load8(s.Limit())
}

func TestLoadStore8(t *testing.T) {
	s := NewSpace(64)
	a := s.Base() + 13
	s.Store8(a, 0xab)
	if got := s.Load8(a); got != 0xab {
		t.Errorf("Load8 = %#x, want 0xab", got)
	}
}

// TestArenaAliasesSpace checks that the arena is the space's memory:
// address Base()+i is arena[i], in little-endian order, both ways.
func TestArenaAliasesSpace(t *testing.T) {
	s := NewSpaceAt(0x4000, 64)
	base, arena := s.Arena()
	if base != s.Base() || uint64(len(arena)) != s.Size() {
		t.Fatalf("Arena = (%#x, %d bytes), want (%#x, %d)", base, len(arena), s.Base(), s.Size())
	}
	a := s.Base() + 8
	s.Store(a, 8, 0x1122334455667788)
	if got := arena[8]; got != 0x88 {
		t.Errorf("low byte = %#x, want 0x88", got)
	}
	arena[17] = 0xab
	if got := s.Load(a+8, 2); got != 0xab00 {
		t.Errorf("Load after an arena write = %#x, want 0xab00", got)
	}
}

func TestVariableWidthLoadStore(t *testing.T) {
	s := NewSpace(64)
	a := s.Base()
	for n := uint64(1); n <= 8; n++ {
		v := uint64(0x0102030405060708) & (1<<(8*n) - 1)
		if n == 8 {
			v = 0x0102030405060708
		}
		s.Store(a, n, v)
		if got := s.Load(a, n); got != v {
			t.Errorf("width %d: Load = %#x, want %#x", n, got, v)
		}
	}
}

func TestStoreLoadRoundTripQuick(t *testing.T) {
	s := NewSpace(1 << 12)
	f := func(off uint16, v uint64, w uint8) bool {
		n := uint64(w%8) + 1
		a := s.Base() + uint64(off)%(s.Size()-8)
		v &= 1<<(8*n) - 1
		s.Store(a, n, v)
		return s.Load(a, n) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemset(t *testing.T) {
	s := NewSpace(64)
	s.Memset(s.Base()+8, 0x5a, 16)
	for i := uint64(0); i < 16; i++ {
		if s.Load8(s.Base()+8+i) != 0x5a {
			t.Fatalf("byte %d not set", i)
		}
	}
	if s.Load8(s.Base()+7) != 0 || s.Load8(s.Base()+24) != 0 {
		t.Error("Memset touched bytes outside the range")
	}
}

func TestMemcpyOverlap(t *testing.T) {
	s := NewSpace(64)
	for i := uint64(0); i < 8; i++ {
		s.Store8(s.Base()+i, byte(i+1))
	}
	s.Memcpy(s.Base()+4, s.Base(), 8) // forward overlap
	want := []byte{1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8}
	for i, w := range want {
		if got := s.Load8(s.Base() + uint64(i)); got != w {
			t.Errorf("byte %d = %d, want %d", i, got, w)
		}
	}
}

func TestBytesAliases(t *testing.T) {
	s := NewSpace(64)
	b := s.Bytes(s.Base()+16, 4)
	b[0] = 0x7f
	if s.Load8(s.Base()+16) != 0x7f {
		t.Error("Bytes slice does not alias the arena")
	}
}

func TestAlign(t *testing.T) {
	tests := []struct {
		a     Addr
		align uint64
		up    Addr
		down  Addr
	}{
		{0, 8, 0, 0},
		{1, 8, 8, 0},
		{8, 8, 8, 8},
		{9, 16, 16, 0},
		{31, 16, 32, 16},
	}
	for _, tt := range tests {
		if got := AlignUp(tt.a, tt.align); got != tt.up {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", tt.a, tt.align, got, tt.up)
		}
		if got := AlignDown(tt.a, tt.align); got != tt.down {
			t.Errorf("AlignDown(%d,%d) = %d, want %d", tt.a, tt.align, got, tt.down)
		}
	}
}
