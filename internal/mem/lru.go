package mem

import "math/bits"

// MaxWays is the widest set an LRU order word can rank: sixteen 4-bit way
// numbers fill its 64 bits.
const MaxWays = 16

// nibbles has 1 in every nibble; multiplying a way number by it repeats
// the number in all sixteen nibbles.
const nibbles = 0x1111_1111_1111_1111

// LRU is the recency order of one set of at most MaxWays ways: the way
// numbers in rank order, one per nibble, least recently used in the low
// nibble and most recently used in nibble ways-1. Nibbles above that stay
// zero. Sets keeps one word per set in place of per-way recency stamps, so
// a victim is one mask and a touch a handful of word operations, with no
// scan over the ways.
type LRU uint64

// NewLRU returns the order of a set of the given number of ways, none of
// them used yet: rank i holds way i. A set whose ways fill lowest index
// first, and are never invalidated, therefore always ranks its unfilled
// ways lowest and in index order, so Victim returns the first invalid way
// while there is one, and the least recently used way after.
func NewLRU(ways int) LRU {
	var o LRU
	for w := ways - 1; w >= 0; w-- {
		o = o<<4 | LRU(w)
	}
	return o
}

// Victim returns the least recently used way.
func (o LRU) Victim() int { return int(o & 0xf) }

// Touch returns o with way w moved to the most recently used rank, whose
// nibble starts at bit top (4*(ways-1) for a set of ways ways); the ways
// ranked above w each move down one rank. w's rank is found as the lowest
// zero nibble of o XOR w (the borrow trick marks it exactly, since no
// nibble below it is zero); masking its bit offset (always a no-op on the
// nibble boundary) tells the compiler every shift is under 64.
func (o LRU) Touch(w int, top uint) LRU {
	x := uint64(o) ^ uint64(w)*nibbles
	p := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) & 60
	return LRU(uint64(o)&(1<<p-1) | uint64(o)>>p>>4<<p | uint64(w)<<(top&63))
}
