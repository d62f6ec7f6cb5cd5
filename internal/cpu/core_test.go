package cpu

import (
	"testing"

	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/workload"
)

// flatMem backs the cache hierarchy with a fixed-latency memory.
type flatMem struct {
	sim     *engine.Sim
	latency uint64
	reads   uint64
}

func (f *flatMem) Access(l mem.Addr, write bool, meta cache.Meta, done func()) {
	f.reads++
	f.sim.After(f.latency, func() {
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

func rig(t *testing.T, memLatency uint64, gen workload.Generator, cfg CoreConfig) (*engine.Sim, *Core) {
	t.Helper()
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 8 << 20, NVMBytes: 64 << 20}, 16)
	osm.NewProcess(1)
	fm := &flatMem{sim: sim, latency: memLatency}
	l2 := cache.New(sim, cache.L2Config(), fm)
	l1 := cache.New(sim, cache.L1Config(), l2)
	m := mmu.New(sim, osm, 0, 1, mmu.DefaultConfig(), l2, nil)
	c := NewCore(sim, 0, 1, cfg, m, l1, gen)
	return sim, c
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
	sim, c := rig(t, 50, gen, DefaultCoreConfig())
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
		sim, c := rig(t, lat, gen, DefaultCoreConfig())
		return run(sim, c, 20_000)
	}
	fast := runAt(20)
	slow := runAt(600)
	if slow.IPC() >= fast.IPC() {
		t.Fatalf("IPC with slow memory (%f) not below fast memory (%f)", slow.IPC(), fast.IPC())
	}
}

func TestMLPWindowBoundsOverlap(t *testing.T) {
	// With window 1, misses serialise; with window 8 they overlap, so the
	// same budget finishes in fewer cycles.
	mk := func(win int) CoreStats {
		gen := &fixedGen{gap: 0, step: 4096 * 3}
		sim, c := rig(t, 400, gen, CoreConfig{MaxOutstanding: win})
		return run(sim, c, 3_000)
	}
	serial := mk(1)
	overlapped := mk(8)
	sCyc := serial.FinishCycle - serial.StartCycle
	oCyc := overlapped.FinishCycle - overlapped.StartCycle
	if oCyc*2 >= sCyc {
		t.Fatalf("window 8 (%d cycles) not at least 2x faster than window 1 (%d)", oCyc, sCyc)
	}
}

func TestRunToContinuation(t *testing.T) {
	gen := &fixedGen{gap: 9, step: 64}
	sim, c := rig(t, 30, gen, DefaultCoreConfig())
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
	sim, c := rig(t, 30, gen, DefaultCoreConfig())
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
	sim, c := rig(t, 30, gen, DefaultCoreConfig())
	run(sim, c, 5_000)
	defer func() {
		if recover() == nil {
			t.Error("RunTo with retired budget did not panic")
		}
	}()
	c.RunTo(1_000, nil)
	_ = sim
}
