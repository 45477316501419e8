package shadow

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

// Template is one memoized shadow image: the codes a sanitizer's fast
// writers stamp with CopySeg for the layout Key names. Codes is shared by
// every reader and must be treated as read-only.
type Template[K comparable] struct {
	Key   K
	Codes []uint8
}

// TemplateTable is a fixed-size, direct-mapped cache of shadow images for
// the allocation-path fast lanes. Each key hashes to exactly one slot, so
// a lookup is one atomic load and one key compare, and a miss's template
// simply overwrites whatever the slot held. Readers never lock and never
// see a half-built entry; a writer that loses a race only wastes its
// build. The table never holds more than its slot count of entries,
// whatever sizes a workload throws at it.
type TemplateTable[K comparable] struct {
	slots []atomic.Pointer[Template[K]]
	shift uint
}

// NewTemplateTable returns a table of the given number of slots, which
// must be a power of two.
func NewTemplateTable[K comparable](slots int) *TemplateTable[K] {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic("shadow: template table size must be a power of two")
	}
	return &TemplateTable[K]{
		slots: make([]atomic.Pointer[Template[K]], slots),
		shift: uint(64 - bits.TrailingZeros(uint(slots))),
	}
}

// slot maps a key hash to its slot by Fibonacci hashing, which spreads
// keys that differ only in their low bits (neighbouring sizes) over the
// whole table.
func (t *TemplateTable[K]) slot(h uint64) *atomic.Pointer[Template[K]] {
	return &t.slots[(h*0x9E3779B97F4A7C15)>>t.shift]
}

// Load returns the entry in the slot of hash h, or nil. The caller
// compares its Key with the key it wants.
func (t *TemplateTable[K]) Load(h uint64) *Template[K] { return t.slot(h).Load() }

// Store publishes codes for key k, whose hash is h, replacing the slot's
// previous entry.
func (t *TemplateTable[K]) Store(h uint64, k K, codes []uint8) {
	t.slot(h).Store(&Template[K]{Key: k, Codes: codes})
}

// Len returns the number of occupied slots.
func (t *TemplateTable[K]) Len() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// ChunkKey packs a chunk layout (left redzone, user size, right redzone,
// and the poison kinds of the two redzones) into one template key: 17
// bits for each length and 6 for each kind. A layout of at most 8192
// segments has every length below 2^17; ok is false for a layout that
// does not fit (a kind outside [0, 64)), which callers build without
// memoizing.
func ChunkKey(leftRZ, userSize, rightRZ uint64, left, right int) (key uint64, ok bool) {
	const lenBits, kindBits = 17, 6
	if max(leftRZ, userSize, rightRZ) >= 1<<lenBits || uint(left) >= 1<<kindBits || uint(right) >= 1<<kindBits {
		return 0, false
	}
	return userSize | leftRZ<<lenBits | rightRZ<<(2*lenBits) |
		uint64(left)<<(3*lenBits) | uint64(right)<<(3*lenBits+kindBits), true
}

// FrameKey appends a stack frame's template key, the uvarints of the
// redzone and of every local's size, to b.
func FrameKey(b []byte, rz uint64, sizes []uint64) []byte {
	b = binary.AppendUvarint(b, rz)
	for _, s := range sizes {
		b = binary.AppendUvarint(b, s)
	}
	return b
}

// KeyHash is the FNV-1a hash of a byte key such as FrameKey's.
func KeyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}
