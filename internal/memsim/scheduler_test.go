package memsim

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

func TestPromoteRaisesSwapRequest(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	cfg.SwapAgeLimit = 0 // no aging: promotion is the only escape
	cfg.ClasslessEvery = 0
	d := New(sim, cfg, 0, 256<<20)

	// Keep the channel busy with demand, then enqueue a swap read and
	// promote it: it must complete before the later demand tail.
	var order []string
	for i := 0; i < 6; i++ {
		d.Access(mem.Addr(i*64), false, PrioDemand, nil, nil)
	}
	swapAddr := mem.Addr(0x100000)
	d.Access(swapAddr, false, PrioSwap, nil, func() { order = append(order, "swap") })
	for i := 6; i < 12; i++ {
		d.Access(mem.Addr(i*64), false, PrioDemand, nil, func() { order = append(order, "demand-tail") })
	}
	d.Promote(swapAddr)
	sim.Drain(0)
	if len(order) == 0 || order[len(order)-1] == "swap" {
		t.Fatalf("promoted swap completed last: %v", order)
	}
}

func TestClasslessSlotGuaranteesBackgroundShare(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	cfg.SwapAgeLimit = 0
	cfg.ClasslessEvery = 4
	d := New(sim, cfg, 0, 256<<20)

	// Saturating demand: a new demand request arrives forever (bounded),
	// plus a batch of swap reads. Without the reserved slot the swaps
	// would wait for the entire demand stream.
	swapsDone := 0
	for i := 0; i < 16; i++ {
		d.Access(mem.Addr(0x200000+i*64), false, PrioSwap, nil, func() { swapsDone++ })
	}
	demandLeft := 200
	var feed func()
	feed = func() {
		if demandLeft == 0 {
			return
		}
		demandLeft--
		d.Access(mem.Addr(demandLeft*64), false, PrioDemand, nil, func() { feed() })
	}
	// Prime several in flight so the queue never empties until the end.
	for i := 0; i < 8; i++ {
		feed()
	}
	sim.RunUntil(16 * 200) // enough slots for ~1/4 background share
	if swapsDone == 0 {
		t.Fatal("background requests starved despite reserved slots")
	}
	sim.Drain(0)
	if swapsDone != 16 {
		t.Fatalf("swapsDone = %d, want 16", swapsDone)
	}
}

func TestAgingPromotesToMiddleClass(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	cfg.SwapAgeLimit = 100
	cfg.ClasslessEvery = 0
	d := New(sim, cfg, 0, 256<<20)

	done := false
	d.Access(0x300000, false, PrioSwap, nil, func() { done = true })
	// Continuous fresh demand for a while; after the age limit the swap
	// should still get through within a bounded horizon.
	for i := 0; i < 50; i++ {
		d.Access(mem.Addr(i*64), false, PrioDemand, nil, nil)
	}
	sim.RunUntil(5000)
	sim.Drain(0)
	if !done {
		t.Fatal("aged swap request never completed")
	}
}
