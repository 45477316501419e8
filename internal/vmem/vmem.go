// Package vmem provides a simulated flat virtual address space.
//
// GiantSan, like every location-based sanitizer, operates on raw addresses:
// it never dereferences application pointers itself, it only maps addresses
// to shadow metadata. That lets the whole sanitizer stack run against a
// simulated address space instead of the process's own memory, which is the
// substitution this reproduction uses for the native mmap-based layout (Go's
// garbage-collected runtime cannot host a real shadow mapping).
//
// A Space is a contiguous arena of bytes addressed by simulated 64-bit
// addresses starting at a non-zero Base, so that address 0 stays invalid and
// null-dereference detection is meaningful.
package vmem

import "fmt"

// Addr is a simulated 64-bit virtual address.
type Addr = uint64

// DefaultBase is the simulated address at which spaces start by default.
// It is deliberately non-zero and 4KiB-aligned so that the zero page is
// permanently unmapped, as on a real OS.
const DefaultBase Addr = 0x10000

// Space is a simulated flat virtual address space backed by a byte arena.
// All application "memory" lives inside a Space; sanitizer shadow memory is
// kept separately (see package shadow) exactly as a real sanitizer keeps its
// shadow outside the application heap.
type Space struct {
	base Addr
	data []byte
}

// NewSpace returns a space of the given size in bytes starting at
// DefaultBase. Size must be positive and a multiple of 8.
func NewSpace(size uint64) *Space {
	return NewSpaceAt(DefaultBase, size)
}

// NewSpaceAt returns a space of the given size starting at base. Both base
// and size must be multiples of 8 (the segment granularity every sanitizer
// in this module assumes).
func NewSpaceAt(base Addr, size uint64) *Space {
	if size == 0 || size%8 != 0 {
		panic(fmt.Sprintf("vmem: size %d must be a positive multiple of 8", size))
	}
	if base%8 != 0 {
		panic(fmt.Sprintf("vmem: base %#x must be 8-byte aligned", base))
	}
	return &Space{base: base, data: make([]byte, size)}
}

// Base returns the lowest valid address of the space.
func (s *Space) Base() Addr { return s.base }

// Size returns the size of the space in bytes.
func (s *Space) Size() uint64 { return uint64(len(s.data)) }

// Limit returns one past the highest valid address.
func (s *Space) Limit() Addr { return s.base + uint64(len(s.data)) }

// Contains reports whether the n bytes starting at a lie inside the space.
func (s *Space) Contains(a Addr, n uint64) bool {
	return a >= s.base && n <= uint64(len(s.data)) && a-s.base <= uint64(len(s.data))-n
}

// Arena returns the space's base address and the byte arena behind it:
// address base+i is arena[i]. It is for callers that test bounds
// themselves once per access (the interpreter's fused access closures);
// writes through the slice are writes to the simulated memory.
func (s *Space) Arena() (Addr, []byte) { return s.base, s.data }

// offset translates a simulated address to an arena index, panicking on a
// wild access: touching memory outside the space is a bug in the *simulator*
// (the sanitizers are supposed to check first), so it fails loudly.
func (s *Space) offset(a Addr, n uint64) uint64 {
	if !s.Contains(a, n) {
		panic(fmt.Sprintf("vmem: wild access [%#x,+%d) outside space [%#x,%#x)", a, n, s.base, s.Limit()))
	}
	return a - s.base
}

// Bytes returns the arena slice aliasing the n bytes at address a.
// Mutating the returned slice mutates the simulated memory.
func (s *Space) Bytes(a Addr, n uint64) []byte {
	off := s.offset(a, n)
	return s.data[off : off+n]
}

// Load8 reads one byte at address a.
func (s *Space) Load8(a Addr) byte {
	return s.data[s.offset(a, 1)]
}

// Store8 writes one byte at address a.
func (s *Space) Store8(a Addr, v byte) {
	s.data[s.offset(a, 1)] = v
}

// Load reads an n-byte little-endian unsigned integer (n in 1..8).
func (s *Space) Load(a Addr, n uint64) uint64 {
	off := s.offset(a, n)
	var v uint64
	for i := uint64(0); i < n; i++ {
		v |= uint64(s.data[off+i]) << (8 * i)
	}
	return v
}

// Store writes an n-byte little-endian unsigned integer (n in 1..8).
func (s *Space) Store(a Addr, n uint64, v uint64) {
	off := s.offset(a, n)
	for i := uint64(0); i < n; i++ {
		s.data[off+i] = byte(v >> (8 * i))
	}
}

// Memset fills the n bytes at address a with b.
func (s *Space) Memset(a Addr, b byte, n uint64) {
	off := s.offset(a, n)
	region := s.data[off : off+n]
	for i := range region {
		region[i] = b
	}
}

// Zero resets the n bytes at address a to zero, the state a fresh space
// starts in. The arena pool uses it to zero exactly the regions a
// recycled run dirtied instead of reallocating the whole space.
func (s *Space) Zero(a Addr, n uint64) {
	if n == 0 {
		return
	}
	off := s.offset(a, n)
	clear(s.data[off : off+n])
}

// Memcpy copies n bytes from src to dst within the space. Overlapping
// regions copy as memmove does (correctly).
func (s *Space) Memcpy(dst, src Addr, n uint64) {
	d := s.offset(dst, n)
	x := s.offset(src, n)
	copy(s.data[d:d+n], s.data[x:x+n])
}

// AlignUp rounds a up to the next multiple of align (a power of two).
func AlignUp(a Addr, align uint64) Addr {
	return (a + align - 1) &^ (align - 1)
}

// AlignDown rounds a down to a multiple of align (a power of two).
func AlignDown(a Addr, align uint64) Addr {
	return a &^ (align - 1)
}
