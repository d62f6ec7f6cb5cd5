package mem

import "fmt"

// Sets is the simulator's one set-associative array: the tag store of the
// caches, the metadata caches (PRTc, PCTc, PoM's SRC, MemPod's remap
// cache), the TLBs and the MMU Driver's PTE-line cache. It holds one
// contiguous block of ways+2 words per set: a key word per way (key+1, so
// 0 marks an invalid way and a lookup compares one word per way), the
// set's LRU order word, then its dirty mask (bit i for way i).
//
// A set is named by the store index of its first key word (its base), and
// a way by the store index of its own key word, so an owner that keeps a
// value per way indexes a parallel slice of Len words by the way itself.
//
// Ways fill lowest index first and are never invalidated, so the order
// word ranks the unfilled ways lowest (see NewLRU): Victim returns the
// first invalid way while the set is not yet full, and the least recently
// used way after.
type Sets struct {
	words  []uint64
	ways   int
	stride int    // ways+2
	top    uint   // bit offset of the most recently used rank in an order word
	sets   uint64 // number of sets
	pow2   bool   // sets is a power of two: Set masks instead of dividing
}

// CheckSets reports whether entries entries in sets of ways ways make a
// set store: 1 to MaxWays ways (the ways an LRU order word ranks), and at
// least one set.
func CheckSets(entries, ways int) error {
	if ways < 1 || ways > MaxWays {
		return fmt.Errorf("%d ways: want 1 to %d, the ways an LRU order word ranks", ways, MaxWays)
	}
	if entries < ways {
		return fmt.Errorf("%d entries < %d ways", entries, ways)
	}
	return nil
}

// NewSets returns entries/ways sets (the remainder of entries is dropped)
// of ways ways each, every way invalid. It panics on the conditions
// CheckSets reports.
func NewSets(entries, ways int) Sets {
	if err := CheckSets(entries, ways); err != nil {
		panic("mem: set store: " + err.Error())
	}
	n := entries / ways
	s := Sets{
		words:  make([]uint64, n*(ways+2)),
		ways:   ways,
		stride: ways + 2,
		top:    4 * uint(ways-1),
		sets:   uint64(n),
		pow2:   n&(n-1) == 0,
	}
	order := uint64(NewLRU(ways))
	for base := 0; base < len(s.words); base += s.stride {
		s.words[base+ways] = order
	}
	return s
}

// Len returns the number of words in the store, the length of a slice
// indexed by way.
func (s *Sets) Len() int { return len(s.words) }

// Capacity returns the number of ways over all sets.
func (s *Sets) Capacity() int { return int(s.sets) * s.ways }

// Set returns the base of the set n maps to: set n mod the set count.
func (s *Sets) Set(n uint64) int {
	if s.pow2 {
		n &= s.sets - 1
	} else {
		n %= s.sets
	}
	return int(n) * s.stride
}

// Next returns the base of the set after the one at base, wrapping from
// the last set to the first: consecutive n map to consecutive sets.
func (s *Sets) Next(base int) int {
	if base += s.stride; base == len(s.words) {
		return 0
	}
	return base
}

// Find returns the way of the set at base that holds key, or -1.
func (s *Sets) Find(base int, key uint64) int {
	for i, k := range s.words[base : base+s.ways] {
		if k == key+1 {
			return base + i
		}
	}
	return -1
}

// Victim returns the way an install into the set at base replaces: the
// least recently used one.
func (s *Sets) Victim(base int) int {
	return base + LRU(s.words[base+s.ways]).Victim()
}

// Touch makes way w of the set at base the most recently used.
func (s *Sets) Touch(base, w int) {
	o := &s.words[base+s.ways]
	*o = uint64(LRU(*o).Touch(w-base, s.top))
}

// Fill installs key, clean, in way w of the set at base (normally its
// Victim) and makes it the most recently used.
func (s *Sets) Fill(base, w int, key uint64) {
	s.words[w] = key + 1
	s.words[base+s.ways+1] &^= 1 << uint(w-base)
	s.Touch(base, w)
}

// Key returns the key way w holds; ok is false when the way is invalid.
func (s *Sets) Key(w int) (key uint64, ok bool) {
	k := s.words[w]
	return k - 1, k != 0
}

// Dirty reports whether way w of the set at base is dirty. An invalid way
// is clean.
func (s *Sets) Dirty(base, w int) bool {
	return s.words[base+s.ways+1]>>uint(w-base)&1 != 0
}

// MarkDirty marks way w of the set at base dirty.
func (s *Sets) MarkDirty(base, w int) {
	s.words[base+s.ways+1] |= 1 << uint(w-base)
}
