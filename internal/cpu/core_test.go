package cpu

import (
	"testing"

	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/workload"
)

// flatMem backs the cache hierarchy with a fixed-latency memory and tracks
// the most requests it ever held in flight.
type flatMem struct {
	sim      *engine.Sim
	latency  uint64
	reads    uint64
	inflight int
	peak     int
}

func (f *flatMem) Access(l mem.Addr, write bool, meta cache.Meta, done func()) {
	f.reads++
	f.inflight++
	f.peak = max(f.peak, f.inflight)
	f.sim.After(f.latency, func() {
		f.inflight--
		if done != nil {
			done()
		}
	})
}

// fixedGen emits a fixed stride pattern.
type fixedGen struct {
	va   mem.VAddr
	gap  uint32
	step mem.VAddr
}

func (g *fixedGen) Next() workload.Access {
	g.va += g.step
	return workload.Access{VA: g.va, Gap: g.gap}
}

func rig(t *testing.T, memLatency uint64, gen workload.Generator) (*engine.Sim, *Core, *flatMem) {
	t.Helper()
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 8 << 20, NVMBytes: 64 << 20}, 16)
	osm.NewProcess(1)
	fm := &flatMem{sim: sim, latency: memLatency}
	l2 := cache.New(sim, cache.L2Config(), fm)
	l1 := cache.New(sim, cache.L1Config(), l2)
	m := mmu.New(sim, osm, 0, 1, mmu.DefaultConfig(), l2, nil)
	c := NewCore(sim, 0, 1, m, l1, gen)
	return sim, c, fm
}

func run(sim *engine.Sim, c *Core, budget uint64) CoreStats {
	done := false
	c.RunTo(budget, func(*Core) { done = true })
	for !done && sim.Step() {
	}
	sim.Drain(0)
	return c.Stats()
}

func TestCoreRetiresBudget(t *testing.T) {
	gen := &fixedGen{gap: 9, step: 64}
	sim, c, _ := rig(t, 50, gen)
	st := run(sim, c, 10_000)
	if st.Instructions < 10_000 {
		t.Fatalf("retired %d instructions, want >= 10000", st.Instructions)
	}
	if !st.Done {
		t.Fatal("core not done")
	}
	if st.FinishCycle == 0 || st.MemOps == 0 {
		t.Fatalf("stats incomplete: %+v", st)
	}
	if st.IPC() <= 0 || st.IPC() > 4 {
		t.Fatalf("IPC %f out of range", st.IPC())
	}
}

func TestHigherLatencyLowersIPC(t *testing.T) {
	runAt := func(lat uint64) CoreStats {
		// Page-sized strides so the caches miss.
		gen := &fixedGen{gap: 4, step: 4096 + 192}
		sim, c, _ := rig(t, lat, gen)
		return run(sim, c, 20_000)
	}
	fast := runAt(20)
	slow := runAt(600)
	if slow.IPC() >= fast.IPC() {
		t.Fatalf("IPC with slow memory (%f) not below fast memory (%f)", slow.IPC(), fast.IPC())
	}
}

func TestMLPWindowBoundsOverlap(t *testing.T) {
	// Every access touches a new line, so it misses to a 400-cycle memory
	// (one page walk per 64 accesses). The window lets up to MaxOutstanding
	// of them overlap, so the budget finishes in well under the cycles
	// serial misses would take, and never more than MaxOutstanding are in
	// flight at once.
	const lat = 400
	gen := &fixedGen{gap: 0, step: mem.LineSize}
	sim, c, fm := rig(t, lat, gen)
	st := run(sim, c, 3_000)
	serial := st.MemOps * lat // a lower bound for one miss at a time
	if cyc := st.FinishCycle - st.StartCycle; cyc*2 >= serial {
		t.Fatalf("%d misses took %d cycles, not at least 2x under the %d of serial misses", st.MemOps, cyc, serial)
	}
	if fm.peak != MaxOutstanding {
		t.Fatalf("memory held %d requests in flight at most, want the %d-deep window", fm.peak, MaxOutstanding)
	}
}

func TestRunToContinuation(t *testing.T) {
	gen := &fixedGen{gap: 9, step: 64}
	sim, c, _ := rig(t, 30, gen)
	st1 := run(sim, c, 5_000)
	st2 := run(sim, c, 12_000)
	if st2.Instructions <= st1.Instructions {
		t.Fatal("second RunTo made no progress")
	}
	if st2.Instructions < 12_000 {
		t.Fatalf("retired %d, want >= 12000", st2.Instructions)
	}
}

func TestMarkEpochResetsAccounting(t *testing.T) {
	gen := &fixedGen{gap: 9, step: 64}
	sim, c, _ := rig(t, 30, gen)
	run(sim, c, 5_000)
	c.MarkEpoch()
	st := c.Stats()
	if st.Instructions != 0 || st.MemOps != 0 {
		t.Fatalf("MarkEpoch left accounting: %+v", st)
	}
	st2 := run(sim, c, 4_000)
	if st2.Instructions < 4_000 {
		t.Fatalf("post-epoch run retired %d", st2.Instructions)
	}
	if st2.StartCycle == 0 {
		t.Fatal("epoch start not re-stamped")
	}
}

func TestRunToStaleBudgetPanics(t *testing.T) {
	gen := &fixedGen{gap: 9, step: 64}
	sim, c, _ := rig(t, 30, gen)
	run(sim, c, 5_000)
	defer func() {
		if recover() == nil {
			t.Error("RunTo with retired budget did not panic")
		}
	}()
	c.RunTo(1_000, nil)
	_ = sim
}
