package mem

import (
	"math/rand"
	"testing"
)

// refSet is the set-store reference for one set: the stamp replacement
// rule plus each way's key, validity and dirty bit kept in plain fields.
type refSet struct {
	stampSet
	keys  []uint64
	valid []bool
	dirty []bool
}

// TestSetsMatchReference drives a Sets and one refSet per set through the
// same random find, fill, touch and mark-dirty stream, for every width
// from 1 to MaxWays and for power-of-two and other set counts (85 is the
// Table I L2 TLB's). After every step it checks the set index of the key,
// the Find result, the victim, and every way's key, validity and dirty bit
// against the reference.
func TestSetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= MaxWays; ways++ {
		for _, nSets := range []int{1, 2, 3, 8, 85} {
			s := NewSets(nSets*ways+rng.Intn(ways), ways) // the remainder is dropped
			if s.Capacity() != nSets*ways {
				t.Fatalf("%d sets of %d ways: capacity %d", nSets, ways, s.Capacity())
			}
			refs := make([]refSet, nSets)
			for i := range refs {
				refs[i] = refSet{
					stampSet: stampSet{stamps: make([]uint64, ways)},
					keys:     make([]uint64, ways),
					valid:    make([]bool, ways),
					dirty:    make([]bool, ways),
				}
			}
			for step := 0; step < 3000; step++ {
				// Keys of one set are set + k*nSets; 3*ways of them keep
				// every set both hitting and evicting.
				set := rng.Intn(nSets)
				key := uint64(set + nSets*rng.Intn(3*ways))
				if rng.Intn(8) == 0 {
					key += uint64(nSets) << 40 // a key far above the rest
				}
				base := s.Set(key)
				if base != set*(ways+2) {
					t.Fatalf("ways %d, sets %d: Set(%d) = %d, want base of set %d", ways, nSets, key, base, set)
				}
				ref := &refs[set]
				want := -1
				for w := range ref.keys {
					if ref.valid[w] && ref.keys[w] == key {
						want = base + w
					}
				}
				got := s.Find(base, key)
				if got != want {
					t.Fatalf("ways %d, sets %d, step %d: Find(%d) = %d, want %d", ways, nSets, step, key, got, want)
				}
				switch {
				case got < 0:
					v := ref.victim()
					if sv := s.Victim(base); sv != base+v {
						t.Fatalf("ways %d, sets %d, step %d: victim %d, reference %d", ways, nSets, step, sv-base, v)
					}
					s.Fill(base, base+v, key)
					ref.keys[v], ref.valid[v], ref.dirty[v] = key, true, false
					ref.touch(v)
				case rng.Intn(3) == 0:
					s.MarkDirty(base, got)
					ref.dirty[got-base] = true
				default:
					s.Touch(base, got)
					ref.touch(got - base)
				}
				if sv := s.Victim(base); sv != base+ref.victim() {
					t.Fatalf("ways %d, sets %d, step %d: victim %d, reference %d", ways, nSets, step, sv-base, ref.victim())
				}
				for w := range ref.keys {
					k, ok := s.Key(base + w)
					if ok != ref.valid[w] || ok && k != ref.keys[w] {
						t.Fatalf("ways %d, sets %d, step %d: way %d holds (%d, %v), reference (%d, %v)",
							ways, nSets, step, w, k, ok, ref.keys[w], ref.valid[w])
					}
					if d := s.Dirty(base, base+w); d != ref.dirty[w] {
						t.Fatalf("ways %d, sets %d, step %d: way %d dirty %v, reference %v", ways, nSets, step, w, d, ref.dirty[w])
					}
				}
			}
		}
	}
}

// TestSetsNextWraps: Next steps through every set in index order and wraps
// from the last to the first, so consecutive n land in consecutive sets.
func TestSetsNextWraps(t *testing.T) {
	for _, nSets := range []int{1, 4, 85} {
		s := NewSets(nSets*12, 12)
		base := s.Set(0)
		for n := uint64(1); n <= uint64(2*nSets); n++ {
			base = s.Next(base)
			if want := s.Set(n); base != want {
				t.Fatalf("%d sets: Next reached base %d for n=%d, Set gives %d", nSets, base, n, want)
			}
		}
	}
}

func TestCheckSets(t *testing.T) {
	for _, c := range []struct {
		entries, ways int
		ok            bool
	}{
		{64, 4, true}, {16, 16, true}, {1020, 12, true},
		{64, 0, false}, {64, 17, false}, {3, 4, false}, {0, 1, false},
	} {
		if err := CheckSets(c.entries, c.ways); (err == nil) != c.ok {
			t.Errorf("CheckSets(%d, %d) = %v, want ok=%v", c.entries, c.ways, err, c.ok)
		}
	}
}
