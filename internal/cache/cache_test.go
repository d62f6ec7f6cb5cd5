package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// fakeMem is a Backend with a fixed latency that records traffic.
type fakeMem struct {
	sim     *engine.Sim
	latency uint64
	reads   []mem.Addr
	writes  []mem.Addr
}

func (f *fakeMem) Access(l mem.Addr, write bool, meta Meta, done func()) {
	if write {
		f.writes = append(f.writes, l)
	} else {
		f.reads = append(f.reads, l)
	}
	f.sim.After(f.latency, func() {
		if done != nil {
			done()
		}
	})
}

func smallCache(sim *engine.Sim, next Backend) *Cache {
	return New(sim, Config{Name: "T", SizeBytes: 4096, Ways: 2, LatencyCycles: 2, AllowPTE: true}, next)
}

func TestHitAndMissLatency(t *testing.T) {
	sim := engine.New()
	fm := &fakeMem{sim: sim, latency: 100}
	c := smallCache(sim, fm)

	var missDone, hitDone uint64
	c.Access(0x80, false, Meta{}, func() { missDone = sim.Now() })
	sim.Drain(0)
	if missDone != 2+100 {
		t.Fatalf("miss latency = %d, want 102", missDone)
	}
	start := sim.Now()
	c.Access(0x80, false, Meta{}, func() { hitDone = sim.Now() })
	sim.Drain(0)
	if hitDone-start != 2 {
		t.Fatalf("hit latency = %d, want 2", hitDone-start)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Accesses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMSHRMergesConcurrentMisses(t *testing.T) {
	sim := engine.New()
	fm := &fakeMem{sim: sim, latency: 100}
	c := smallCache(sim, fm)
	done := 0
	for i := 0; i < 5; i++ {
		c.Access(0x80, false, Meta{}, func() { done++ })
	}
	sim.Drain(0)
	if done != 5 {
		t.Fatalf("%d waiters completed, want 5", done)
	}
	if len(fm.reads) != 1 {
		t.Fatalf("backend saw %d reads, want 1 (merged)", len(fm.reads))
	}
	if c.Stats().MSHRMerges != 4 {
		t.Fatalf("MSHRMerges = %d, want 4", c.Stats().MSHRMerges)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	sim := engine.New()
	fm := &fakeMem{sim: sim, latency: 10}
	c := smallCache(sim, fm)
	// Dirty a line, then evict it by filling its set (2 ways, same set).
	// Set index repeats every nSets*64 bytes; 4096/64/2 = 32 sets.
	setStride := mem.Addr(32 * 64)
	c.Access(0, true, Meta{}, nil)
	sim.Drain(0)
	c.Access(setStride, false, Meta{}, nil)
	c.Access(2*setStride, false, Meta{}, nil)
	sim.Drain(0)
	if len(fm.writes) != 1 || fm.writes[0] != 0 {
		t.Fatalf("writebacks = %v, want [0x0]", fm.writes)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks stat = %d", c.Stats().Writebacks)
	}
	if c.Contains(0) {
		t.Fatal("evicted line still resident")
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	sim := engine.New()
	fm := &fakeMem{sim: sim, latency: 10}
	c := smallCache(sim, fm)
	setStride := mem.Addr(32 * 64)
	for i := mem.Addr(0); i < 3; i++ {
		c.Access(i*setStride, false, Meta{}, nil)
		sim.Drain(0)
	}
	if len(fm.writes) != 0 {
		t.Fatalf("clean eviction produced writebacks: %v", fm.writes)
	}
}

func TestLRUReplacement(t *testing.T) {
	sim := engine.New()
	fm := &fakeMem{sim: sim, latency: 10}
	c := smallCache(sim, fm)
	setStride := mem.Addr(32 * 64)
	a, b, d := mem.Addr(0), setStride, 2*setStride
	c.Access(a, false, Meta{}, nil)
	sim.Drain(0)
	c.Access(b, false, Meta{}, nil)
	sim.Drain(0)
	c.Access(a, false, Meta{}, nil) // touch a: b becomes LRU
	sim.Drain(0)
	c.Access(d, false, Meta{}, nil) // evicts b
	sim.Drain(0)
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Fatalf("LRU violated: a=%v b=%v d=%v", c.Contains(a), c.Contains(b), c.Contains(d))
	}
}

func TestPTEInL1Panics(t *testing.T) {
	sim := engine.New()
	fm := &fakeMem{sim: sim, latency: 10}
	l1 := New(sim, L1Config(), fm)
	defer func() {
		if recover() == nil {
			t.Error("PTE access to L1 did not panic")
		}
	}()
	l1.Access(0x40, false, Meta{IsPTE: true}, nil)
}

func TestPTEStatsTracked(t *testing.T) {
	sim := engine.New()
	fm := &fakeMem{sim: sim, latency: 10}
	c := smallCache(sim, fm)
	c.Access(0x40, false, Meta{IsPTE: true}, nil)
	sim.Drain(0)
	c.Access(0x40, false, Meta{IsPTE: true}, nil)
	sim.Drain(0)
	st := c.Stats()
	if st.PTEAccess != 2 || st.PTEMiss != 1 {
		t.Fatalf("PTE stats = %d/%d, want 2/1", st.PTEAccess, st.PTEMiss)
	}
}

func TestHierarchyChain(t *testing.T) {
	sim := engine.New()
	fm := &fakeMem{sim: sim, latency: 200}
	l3 := New(sim, L3Config(), fm)
	l2 := New(sim, L2Config(), l3)
	l1 := New(sim, L1Config(), l2)
	var lat uint64
	l1.Access(0x1000, false, Meta{}, func() { lat = sim.Now() })
	sim.Drain(0)
	want := uint64(2 + 8 + 32 + 200)
	if lat != want {
		t.Fatalf("3-level miss latency = %d, want %d", lat, want)
	}
	// All levels now hold the line; an L1 hit takes 2 cycles.
	start := sim.Now()
	l1.Access(0x1000, false, Meta{}, func() { lat = sim.Now() - start })
	sim.Drain(0)
	if lat != 2 {
		t.Fatalf("L1 hit latency = %d, want 2", lat)
	}
	if !l2.Contains(0x1000) || !l3.Contains(0x1000) {
		t.Fatal("fill did not populate lower levels")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	sim := engine.New()
	for _, cfg := range []Config{
		{Name: "x", SizeBytes: 4096, Ways: 0},
		{Name: "y", SizeBytes: 4096 + 64, Ways: 2},
		{Name: "z", SizeBytes: 3 * 64 * 2, Ways: 2},   // 3 sets, not pow2
		{Name: "w", SizeBytes: 2 * 64 * 32, Ways: 32}, // wider than an LRU order word
	} {
		func() {
			defer func() { recover() }()
			New(sim, cfg, nil)
			t.Errorf("config %+v did not panic", cfg)
		}()
	}
}

// Property: cache contents always mirror a reference model (same hits and
// misses for any access sequence against an LRU reference).
func TestLRUMatchesReferenceProperty(t *testing.T) {
	type refSet struct{ order []uint64 } // front = LRU
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		fm := &fakeMem{sim: sim, latency: 1}
		ways := 4
		nSets := 8
		c := New(sim, Config{Name: "p", SizeBytes: nSets * ways * 64, Ways: ways, LatencyCycles: 1, AllowPTE: true}, fm)
		ref := make([]refSet, nSets)
		for op := 0; op < 600; op++ {
			lineNo := uint64(rng.Intn(nSets * ways * 3))
			addr := mem.Addr(lineNo << mem.LineShift)
			set := int(lineNo % uint64(nSets))

			refHit := false
			rs := &ref[set]
			for i, tag := range rs.order {
				if tag == lineNo {
					refHit = true
					rs.order = append(rs.order[:i], rs.order[i+1:]...)
					rs.order = append(rs.order, lineNo)
					break
				}
			}
			if !refHit {
				if len(rs.order) == ways {
					rs.order = rs.order[1:]
				}
				rs.order = append(rs.order, lineNo)
			}

			before := c.Stats().Hits
			c.Access(addr, rng.Intn(4) == 0, Meta{}, nil)
			sim.Drain(0)
			gotHit := c.Stats().Hits > before
			if gotHit != refHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every access completes exactly once, under random interleaving
// without draining between accesses (exercises MSHR paths).
func TestAllAccessesCompleteProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		fm := &fakeMem{sim: sim, latency: uint64(rng.Intn(50) + 1)}
		c := smallCache(sim, fm)
		n := int(nRaw)%300 + 1
		completed := 0
		for i := 0; i < n; i++ {
			addr := mem.Addr(rng.Intn(64*32)) << mem.LineShift
			c.Access(addr, rng.Intn(2) == 0, Meta{}, func() { completed++ })
			if rng.Intn(4) == 0 {
				sim.RunUntil(sim.Now() + uint64(rng.Intn(20)))
			}
		}
		sim.Drain(0)
		return completed == n && c.OutstandingMisses() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
