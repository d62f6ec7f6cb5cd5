package hmc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/engine"
)

func testMetaCache(latency uint64) (*engine.Sim, *MetaCache, *recordingIssuer) {
	sim := engine.New()
	ri := &recordingIssuer{sim: sim, latency: latency}
	region := MetaRegion{Base: 0x1000, Bytes: 1 << 20, EntrySize: 8}
	// 32KB / 3.5B entries, 4-way (the paper's PRTc geometry, Table II).
	cfg := MetaCacheConfig{Name: "PRTc", Entries: 9362, Ways: 4, HitLatency: 2}
	return sim, NewMetaCache(sim, cfg, region, ri.issue), ri
}

func TestMetaCacheMissThenHit(t *testing.T) {
	sim, c, ri := testMetaCache(100)
	var missLat, hitLat uint64
	start := sim.Now()
	c.Access(7, false, nil, func() { missLat = sim.Now() - start })
	sim.Drain(0)
	start = sim.Now()
	c.Access(7, false, nil, func() { hitLat = sim.Now() - start })
	sim.Drain(0)
	if missLat < 100 {
		t.Fatalf("miss latency %d below backing latency", missLat)
	}
	if hitLat != 2 {
		t.Fatalf("hit latency = %d, want 2", hitLat)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WaitCycles < 100 {
		t.Fatalf("WaitCycles = %d, want >= 100", st.WaitCycles)
	}
	if ri.reads != 1 {
		t.Fatalf("backing reads = %d, want 1", ri.reads)
	}
}

func TestMetaCachePrefetchAvoidsWait(t *testing.T) {
	sim, c, _ := testMetaCache(100)
	c.Prefetch(42)
	sim.Drain(0)
	var lat uint64
	start := sim.Now()
	c.Access(42, false, nil, func() { lat = sim.Now() - start })
	sim.Drain(0)
	if lat != 2 {
		t.Fatalf("post-prefetch access latency = %d, want 2 (hit)", lat)
	}
	if c.Stats().WaitCycles != 0 {
		t.Fatalf("WaitCycles = %d after prefetch, want 0", c.Stats().WaitCycles)
	}
	if c.Stats().Prefetches != 1 {
		t.Fatalf("Prefetches = %d", c.Stats().Prefetches)
	}
}

func TestMetaCachePrefetchMergesWithAccess(t *testing.T) {
	sim, c, ri := testMetaCache(100)
	c.Prefetch(9)
	done := false
	c.Access(9, false, nil, func() { done = true })
	sim.Drain(0)
	if !done {
		t.Fatal("access merged into prefetch never completed")
	}
	if ri.reads != 1 {
		t.Fatalf("backing reads = %d, want 1 (merged)", ri.reads)
	}
}

func TestMetaCacheDirtyWriteback(t *testing.T) {
	sim := engine.New()
	ri := &recordingIssuer{sim: sim, latency: 1}
	region := MetaRegion{Base: 0, Bytes: 1 << 20, EntrySize: 8}
	cfg := MetaCacheConfig{Name: "t", Entries: 4, Ways: 2, HitLatency: 1}
	c := NewMetaCache(sim, cfg, region, ri.issue)
	// 2 sets x 2 ways. Fill set 0 with dirty entries, then overflow it.
	c.Access(0, true, nil, nil)
	sim.Drain(0)
	c.Access(2, true, nil, nil)
	sim.Drain(0)
	c.Access(4, false, nil, nil) // evicts one dirty entry
	sim.Drain(0)
	if c.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
	if ri.writes != 1 {
		t.Fatalf("backing writes = %d, want 1", ri.writes)
	}
}

func TestMetaCacheCleanEvictionSilent(t *testing.T) {
	sim := engine.New()
	ri := &recordingIssuer{sim: sim, latency: 1}
	region := MetaRegion{Base: 0, Bytes: 1 << 20, EntrySize: 8}
	cfg := MetaCacheConfig{Name: "t", Entries: 4, Ways: 2, HitLatency: 1}
	c := NewMetaCache(sim, cfg, region, ri.issue)
	for _, k := range []uint64{0, 2, 4} {
		c.Access(k, false, nil, nil)
		sim.Drain(0)
	}
	if ri.writes != 0 {
		t.Fatalf("clean evictions wrote back %d entries", ri.writes)
	}
}

// Property: after Access(k) completes, Present(k) is true; repeated accesses
// to a working set no larger than one set's ways never miss again.
func TestMetaCacheResidencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		ri := &recordingIssuer{sim: sim, latency: uint64(rng.Intn(20) + 1)}
		region := MetaRegion{Base: 0, Bytes: 1 << 20, EntrySize: 8}
		cfg := MetaCacheConfig{Name: "p", Entries: 16, Ways: 4, HitLatency: 1}
		c := NewMetaCache(sim, cfg, region, ri.issue)
		// Working set: `ways` keys in one set.
		keys := make([]uint64, cfg.Ways)
		set := uint64(rng.Intn(cfg.Entries / cfg.Ways))
		for i := range keys {
			keys[i] = set + uint64(i*(cfg.Entries/cfg.Ways)*1) // same set
		}
		for _, k := range keys {
			c.Access(k, false, nil, nil)
		}
		sim.Drain(0)
		missesAfterWarm := c.Stats().Misses
		for i := 0; i < 100; i++ {
			k := keys[rng.Intn(len(keys))]
			ok := true
			c.Access(k, rng.Intn(2) == 0, nil, func() { ok = c.Present(k) })
			sim.Drain(0)
			if !ok {
				return false
			}
		}
		return c.Stats().Misses == missesAfterWarm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
