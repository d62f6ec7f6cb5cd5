package hmc

import (
	"testing"

	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs"
)

func testController() (*engine.Sim, *Controller) {
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 8 << 20, NVMBytes: 64 << 20}, 64)
	c := NewController(sim, osm)
	return sim, c
}

func TestStaticRoutesToOriginalLocation(t *testing.T) {
	sim, c := testController()
	NewStatic(c)
	dramAddr := mem.Addr(0x1000)
	nvmAddr := mem.Addr(8<<20) + 0x1000

	var dramLat, nvmLat uint64
	start := sim.Now()
	c.Access(dramAddr, false, cache.Meta{}, func() { dramLat = sim.Now() - start })
	sim.Drain(0)
	start = sim.Now()
	c.Access(nvmAddr, false, cache.Meta{}, func() { nvmLat = sim.Now() - start })
	sim.Drain(0)

	if dramLat >= nvmLat {
		t.Fatalf("DRAM latency %d not below NVM latency %d", dramLat, nvmLat)
	}
	st := c.Stats()
	if st.ServedDRAM != 1 || st.ServedNVM != 1 {
		t.Fatalf("service counters = %+v", st)
	}
	if st.Neutral != 2 || st.Positive != 0 || st.Negative != 0 {
		t.Fatalf("static run not all-neutral: %+v", st)
	}
}

func TestWritebackNotCountedAsDemand(t *testing.T) {
	sim, c := testController()
	NewStatic(c)
	c.Access(0x40, true, cache.Meta{Writeback: true}, nil)
	sim.Drain(0)
	st := c.Stats()
	if st.Demand != 0 || st.Writebacks != 1 || st.ServedDRAM != 0 {
		t.Fatalf("writeback accounting wrong: %+v", st)
	}
}

func TestPTEStatTracked(t *testing.T) {
	sim, c := testController()
	NewStatic(c)
	c.Access(0x40, false, cache.Meta{IsPTE: true, PageWalk: true}, nil)
	sim.Drain(0)
	st := c.Stats()
	if st.PTEReachedHMC != 1 {
		t.Fatalf("PTEReachedHMC = %d", st.PTEReachedHMC)
	}
	if st.DataDemand != 0 {
		t.Fatalf("page-walk read counted as data demand")
	}
	if st.Demand != 1 {
		t.Fatalf("Demand = %d, want 1", st.Demand)
	}
}

func TestAMMATAveragesLatency(t *testing.T) {
	sim, c := testController()
	NewStatic(c)
	for i := 0; i < 10; i++ {
		c.Access(mem.Addr(i*64), false, cache.Meta{}, nil)
	}
	sim.Drain(0)
	if c.AMMAT() <= 0 {
		t.Fatal("AMMAT not positive after traffic")
	}
}

func TestAllocMetaRegionContiguous(t *testing.T) {
	_, c := testController()
	r := c.AllocMetaRegion(426<<10, 7) // the PRT from Table II
	if r.Bytes < 426<<10 {
		t.Fatalf("region bytes = %d", r.Bytes)
	}
	if !c.Layout.IsDRAM(r.Base) {
		t.Fatal("metadata region not in DRAM")
	}
	// Entry addresses must stay inside the region and be line-aligned.
	for _, idx := range []uint64{0, 1, 1000, 1 << 20} {
		a := r.EntryAddr(idx)
		if a < r.Base || uint64(a-r.Base) >= r.Bytes {
			t.Fatalf("entry %d address %#x outside region", idx, uint64(a))
		}
		if a%mem.LineSize != 0 {
			t.Fatalf("entry address %#x not line aligned", uint64(a))
		}
	}
}

func TestRouteOutOfRangePanics(t *testing.T) {
	_, c := testController()
	defer func() {
		if recover() == nil {
			t.Error("Route out of range did not panic")
		}
	}()
	c.Route(mem.Addr(1 << 45))
}

func TestDoubleCompletePanics(t *testing.T) {
	sim, c := testController()
	NewStatic(c)
	r := &Request{Line: 0, ctl: c, Arrival: 0}
	c.complete(r, obs.LatDRAM)
	_ = sim
	defer func() {
		if recover() == nil {
			t.Error("double completion did not panic")
		}
	}()
	c.complete(r, obs.LatDRAM)
}

func TestStaticIntegrity(t *testing.T) {
	_, c := testController()
	NewStatic(c)
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
