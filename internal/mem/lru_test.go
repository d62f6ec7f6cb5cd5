package mem

import (
	"math/rand"
	"testing"
)

// stampSet is the replacement rule the LRU order word stands in for: each
// way carries the tick of its last use (0 = never filled), and the victim
// is the first invalid way, else the way with the smallest stamp.
type stampSet struct {
	stamps []uint64
	tick   uint64
}

func (s *stampSet) victim() int {
	v := 0
	for i, st := range s.stamps {
		if st == 0 {
			return i
		}
		if st < s.stamps[v] {
			v = i
		}
	}
	return v
}

func (s *stampSet) touch(w int) {
	s.tick++
	s.stamps[w] = s.tick
}

// TestLRUMatchesStampRule drives an order word and the stamp rule through
// the same random fills (install over the victim) and touches (use of a
// filled way) for every width from 1 to MaxWays, and checks after each
// step that both name the same victim and that the word is a permutation
// of the ways with every nibble above them zero.
func TestLRUMatchesStampRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= MaxWays; ways++ {
		for trial := 0; trial < 20; trial++ {
			o := NewLRU(ways)
			ref := &stampSet{stamps: make([]uint64, ways)}
			filled := 0
			for step := 0; step < 400; step++ {
				var w int
				if filled == 0 || rng.Intn(3) == 0 {
					w = ref.victim()
					if got := o.Victim(); got != w {
						t.Fatalf("ways %d, step %d: victim %d, stamp rule %d", ways, step, got, w)
					}
					if ref.stamps[w] == 0 {
						filled++
					}
				} else {
					w = rng.Intn(filled) // ways fill lowest index first
				}
				ref.touch(w)
				o = o.Touch(w, 4*uint(ways-1))
				if got := o.Victim(); got != ref.victim() {
					t.Fatalf("ways %d, step %d: after touching %d victim %d, stamp rule %d",
						ways, step, w, got, ref.victim())
				}
				if top := int(o >> (4 * uint(ways-1))); top != w {
					t.Fatalf("ways %d, step %d: touched way %d, most recent rank holds %d", ways, step, w, top)
				}
				seen := 0
				for r := 0; r < ways; r++ {
					seen |= 1 << (o >> (4 * uint(r)) & 0xf)
				}
				if seen != 1<<ways-1 || (ways < MaxWays && o>>(4*uint(ways)) != 0) {
					t.Fatalf("ways %d, step %d: order word %#x is not a permutation of the ways", ways, step, uint64(o))
				}
			}
		}
	}
}
