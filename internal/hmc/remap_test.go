package hmc

import (
	"math/rand"
	"testing"
)

// mapRemap is the map-based permutation the managers kept before the dense
// table: location[d] is the slot holding d's data and occupant[s] the data
// slot s holds, identity when absent.
type mapRemap struct {
	location, occupant map[uint64]uint64
}

func newMapRemap() *mapRemap {
	return &mapRemap{location: map[uint64]uint64{}, occupant: map[uint64]uint64{}}
}

func (m *mapRemap) loc(d uint64) uint64 {
	if s, ok := m.location[d]; ok {
		return s
	}
	return d
}

func (m *mapRemap) owner(s uint64) uint64 {
	if d, ok := m.occupant[s]; ok {
		return d
	}
	return s
}

// setOccupant is PoM's commit step: slot holds data from now on.
func (m *mapRemap) setOccupant(slot, data uint64) {
	m.occupant[slot] = data
	m.location[data] = slot
	if m.occupant[slot] == slot {
		delete(m.occupant, slot)
	}
	if m.location[data] == data {
		delete(m.location, data)
	}
}

// place is PoM's and MemPod's swap commit: d's data lands in slot s, and
// the data s held lands where d's used to be.
func (m *mapRemap) place(d, s uint64) {
	from, displaced := m.loc(d), m.owner(s)
	m.setOccupant(s, d)
	m.setOccupant(from, displaced)
}

// exchange is the map-based oracle's slot exchange.
func (m *mapRemap) exchange(a, b uint64) {
	da, db := m.owner(a), m.owner(b)
	m.occupant[a], m.occupant[b] = db, da
	m.location[da], m.location[db] = b, a
}

func (m *mapRemap) moved() int {
	n := 0
	for d, s := range m.location {
		if d != s {
			n++
		}
	}
	return n
}

// TestRemapMatchesMapReference drives the dense table and the map-based
// reference through the same random Place and Exchange sequence. The
// touched units are spread over a 2^21-unit table, so offsets wrap both
// ways. Loc, Owner and Moved must agree after every operation.
func TestRemapMatchesMapReference(t *testing.T) {
	const units = 1 << 21
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, ref := NewRemap(units), newMapRemap()
		pool := make([]uint64, 8+rng.Intn(56))
		for i := range pool {
			pool[i] = uint64(rng.Intn(units))
		}
		pick := func() uint64 { return pool[rng.Intn(len(pool))] }
		for op := 0; op < 2000; op++ {
			a, b := pick(), pick()
			desc := "Exchange"
			if rng.Intn(2) == 0 {
				desc = "Place"
				r.Place(a, b)
				ref.place(a, b)
			} else {
				r.Exchange(a, b)
				ref.exchange(a, b)
			}
			for _, u := range pool {
				if got, want := r.Loc(u), ref.loc(u); got != want {
					t.Fatalf("seed %d op %d (%s %#x %#x): Loc(%#x) = %#x, reference %#x", seed, op, desc, a, b, u, got, want)
				}
				if got, want := r.Owner(u), ref.owner(u); got != want {
					t.Fatalf("seed %d op %d (%s %#x %#x): Owner(%#x) = %#x, reference %#x", seed, op, desc, a, b, u, got, want)
				}
			}
			if got, want := r.Moved(), ref.moved(); got != want {
				t.Fatalf("seed %d op %d (%s %#x %#x): Moved = %d, reference %d", seed, op, desc, a, b, got, want)
			}
		}
	}
}

// remapLoop is a table with a quarter of its units displaced, the state a
// long run leaves behind.
func remapLoop() (*Remap, []uint64) {
	const units = 18_432 // 2KB segments of the -scale 128 memory
	r := NewRemap(units)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < units/8; i++ {
		r.Exchange(uint64(rng.Intn(units)), uint64(rng.Intn(units)))
	}
	probe := make([]uint64, 1024)
	for i := range probe {
		probe[i] = uint64(rng.Intn(units))
	}
	return r, probe
}

func BenchmarkRemapTranslate(b *testing.B) {
	r, probe := remapLoop()
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Loc(probe[i&1023])
	}
	_ = sink
}

// TestZeroAllocRemap: a swap commit (Place and Exchange) and a full oracle
// verification allocate nothing.
func TestZeroAllocRemap(t *testing.T) {
	r, probe := remapLoop()
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Place(probe[i&1023], probe[(i+1)&1023])
		r.Exchange(probe[(i+2)&1023], probe[(i+3)&1023])
		i++
	}); allocs != 0 {
		t.Fatalf("a remap commit allocates %.1f times, want 0", allocs)
	}
	o := NewOracle(r.Units())
	identity := func(d uint64) uint64 { return d }
	if allocs := testing.AllocsPerRun(10, func() {
		if err := o.VerifyAll(identity); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("VerifyAll allocates %.1f times, want 0", allocs)
	}
}
