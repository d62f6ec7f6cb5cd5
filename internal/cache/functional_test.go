package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// AccessFunctional lets fakeMem terminate a functional hierarchy: it
// records the traffic exactly as the detailed Access does.
func (f *fakeMem) AccessFunctional(l mem.Addr, write bool, meta Meta) {
	if write {
		f.writes = append(f.writes, l)
	} else {
		f.reads = append(f.reads, l)
	}
}

// tinyHierarchy builds a small L1 -> L2 -> L3 chain over fm: 8 sets of 2
// ways, 8 sets of 4 ways and 16 sets of 4 ways.
func tinyHierarchy(sim *engine.Sim, fm *fakeMem) [3]*Cache {
	l3 := New(sim, Config{Name: "L3", SizeBytes: 16 * 4 * 64, Ways: 4, LatencyCycles: 4, AllowPTE: true}, fm)
	l2 := New(sim, Config{Name: "L2", SizeBytes: 8 * 4 * 64, Ways: 4, LatencyCycles: 2, AllowPTE: true}, l3)
	l1 := New(sim, Config{Name: "L1", SizeBytes: 8 * 2 * 64, Ways: 2, LatencyCycles: 1}, l2)
	return [3]*Cache{l1, l2, l3}
}

// Property: the functional fast-forward path leaves the hierarchy in the
// state the detailed path reaches when each access drains before the next.
// One read/write line stream feeds both; the dirty writebacks reaching
// memory must arrive in the same order, and every level must agree on every
// line's residency after every access.
//
// Memory answers in zero cycles. With a slower memory the two paths part
// ways by design: an L2 victim's writeback that misses L3 installs there
// only after the fetch returns, so a later L3 hit can touch its LRU first,
// while the functional path installs at once.
//
// The stream opens with a replacement: lines a, b and c share an L1 set of
// two ways, so c replaces a, and the re-access of a must miss on a's old
// way, now holding c.
func TestFunctionalMatchesDetailedProperty(t *testing.T) {
	const lines = 256 // footprint in lines: 4x the L3
	setStride := mem.Addr(8 * mem.LineSize)
	a, b, c := mem.Addr(0), setStride, 2*setStride
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		dm := &fakeMem{sim: sim}
		fm := &fakeMem{}
		det := tinyHierarchy(sim, dm)
		fun := tinyHierarchy(nil, fm)
		stream := []mem.Addr{a, b, c, a, c, b}
		for i := 0; i < 600; i++ {
			stream = append(stream, mem.Addr(rng.Intn(lines))<<mem.LineShift)
		}
		for i, addr := range stream {
			write := i < 3 || rng.Intn(3) == 0
			det[0].Access(addr, write, Meta{}, nil)
			sim.Drain(0)
			fun[0].AccessFunctional(addr, write, Meta{})
			for lvl := range det {
				for ln := 0; ln < lines; ln++ {
					l := mem.Addr(ln) << mem.LineShift
					if det[lvl].Contains(l) != fun[lvl].Contains(l) {
						t.Logf("seed %d access %d (%#x): L%d residency of %#x: detailed %v, functional %v",
							seed, i, uint64(addr), lvl+1, uint64(l), det[lvl].Contains(l), fun[lvl].Contains(l))
						return false
					}
				}
			}
		}
		if len(dm.writes) != len(fm.writes) {
			t.Logf("seed %d: %d detailed writebacks, %d functional", seed, len(dm.writes), len(fm.writes))
			return false
		}
		for i := range dm.writes {
			if dm.writes[i] != fm.writes[i] {
				t.Logf("seed %d: writeback %d is %#x detailed, %#x functional",
					seed, i, uint64(dm.writes[i]), uint64(fm.writes[i]))
				return false
			}
		}
		return len(dm.writes) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
