package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

func newDRAM(sim *engine.Sim) *Module {
	return New(sim, DRAMConfig(), 0, 512<<20)
}

func newNVM(sim *engine.Sim) *Module {
	return New(sim, NVMConfig(), 512<<20, 4<<30)
}

func TestSingleReadLatency(t *testing.T) {
	sim := engine.New()
	d := newDRAM(sim)
	var doneAt uint64
	d.Access(0x1000, false, PrioDemand, nil, func() { doneAt = sim.Now() })
	sim.Drain(0)
	want := d.IdleLatency() // closed bank: tRCD+tCAS+burst, CPU cycles
	if doneAt != want {
		t.Fatalf("idle read latency = %d, want %d", doneAt, want)
	}
	// (11+11+4)*2 = 52 CPU cycles for the paper's DRAM.
	if want != 52 {
		t.Fatalf("DRAM idle latency = %d CPU cycles, want 52", want)
	}
}

func TestNVMSlowerThanDRAM(t *testing.T) {
	sim := engine.New()
	d := newDRAM(sim)
	n := newNVM(sim)
	if n.IdleLatency() <= d.IdleLatency() {
		t.Fatalf("NVM idle latency %d not greater than DRAM %d", n.IdleLatency(), d.IdleLatency())
	}
	// (58+11+4)*2 = 146 for the paper's NVM.
	if n.IdleLatency() != 146 {
		t.Fatalf("NVM idle latency = %d, want 146", n.IdleLatency())
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	sim := engine.New()
	d := newDRAM(sim)
	// Two accesses to the same line: second is a row hit.
	var t1, t2 uint64
	d.Access(0x40, false, PrioDemand, nil, func() { t1 = sim.Now() })
	sim.Drain(0)
	d.Access(0x40, false, PrioDemand, nil, func() { t2 = sim.Now() })
	sim.Drain(0)
	hitLat := t2 - t1
	if hitLat >= d.IdleLatency() {
		t.Fatalf("row hit latency %d not better than closed-bank %d", hitLat, d.IdleLatency())
	}
	st := d.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Fatalf("row stats hits=%d misses=%d, want 1/1", st.RowHits, st.RowMisses)
	}
}

func TestRowConflictReopensRow(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	cfg.RanksPerChannel = 1
	cfg.BanksPerRank = 1
	d := New(sim, cfg, 0, 64<<20)
	rowStride := mem.Addr(cfg.RowBytes) // next row, same (only) bank
	var t1, t2 uint64
	d.Access(0, false, PrioDemand, nil, func() { t1 = sim.Now() })
	sim.Drain(0)
	d.Access(rowStride, false, PrioDemand, nil, func() { t2 = sim.Now() })
	sim.Drain(0)
	if t2-t1 <= d.IdleLatency() {
		t.Fatalf("conflict latency %d not worse than closed-bank %d", t2-t1, d.IdleLatency())
	}
	if st := d.Stats(); st.RowConflicts != 1 {
		t.Fatalf("RowConflicts = %d, want 1", st.RowConflicts)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	d := New(sim, cfg, 0, 256<<20)

	// N conflicting accesses to the same bank, different rows.
	sameBankDone := uint64(0)
	rowStride := mem.Addr(cfg.RowBytes * uint64(cfg.BanksPerRank))
	for i := 0; i < 4; i++ {
		d.Access(mem.Addr(i)*rowStride*8, false, PrioDemand, nil, func() { sameBankDone = sim.Now() })
	}
	sim.Drain(0)
	sameBankTime := sameBankDone

	// Same count spread over different banks.
	sim2 := engine.New()
	d2 := New(sim2, cfg, 0, 256<<20)
	spreadDone := uint64(0)
	for i := 0; i < 4; i++ {
		d2.Access(mem.Addr(cfg.RowBytes)*mem.Addr(i), false, PrioDemand, nil, func() { spreadDone = sim2.Now() })
	}
	sim2.Drain(0)
	if spreadDone >= sameBankTime {
		t.Fatalf("bank-parallel batch (%d) not faster than same-bank batch (%d)", spreadDone, sameBankTime)
	}
}

func TestNVMWriteRecoveryHurtsFollowingAccess(t *testing.T) {
	sim := engine.New()
	cfg := NVMConfig()
	cfg.Channels = 1
	cfg.RanksPerChannel = 1
	cfg.BanksPerRank = 1
	n := New(sim, cfg, 0, 64<<20)
	// Write then a conflicting read to another row in the same bank: the
	// precharge must wait out tWR (180 memory cycles).
	var rdDone uint64
	n.Access(0, true, PrioDemand, nil, nil)
	n.Access(mem.Addr(cfg.RowBytes), false, PrioDemand, nil, func() { rdDone = sim.Now() })
	sim.Drain(0)
	if rdDone < cfg.Timing.TWR*cfg.ClockRatio {
		t.Fatalf("read after NVM write done at %d, expected to wait at least tWR=%d",
			rdDone, cfg.Timing.TWR*cfg.ClockRatio)
	}
}

func TestDemandPriorityOverSwap(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	d := New(sim, cfg, 0, 256<<20)
	var order []string
	// Enqueue many swap requests first, then one demand request; demand must
	// be picked at the first scheduling opportunity after arrival.
	for i := 0; i < 8; i++ {
		d.Access(mem.Addr(i*64*int(cfg.Channels)), false, PrioSwap, nil, func() { order = append(order, "swap") })
	}
	d.Access(0x100000, false, PrioDemand, nil, func() { order = append(order, "demand") })
	sim.Drain(0)
	if len(order) != 9 {
		t.Fatalf("completed %d requests", len(order))
	}
	// The demand request cannot be last; it should complete among the first
	// couple (the very first slot may already be issued).
	for i, s := range order {
		if s == "demand" {
			if i > 1 {
				t.Fatalf("demand completed at position %d: %v", i, order)
			}
			return
		}
	}
	t.Fatal("demand request never completed")
}

func TestChannelInterleavingSpreadsLines(t *testing.T) {
	sim := engine.New()
	d := newDRAM(sim)
	seen := map[int]bool{}
	for i := 0; i < d.cfg.Channels; i++ {
		ch, _, _ := d.locate(mem.Addr(i * 64))
		seen[ch] = true
	}
	if len(seen) != d.cfg.Channels {
		t.Fatalf("consecutive lines hit %d channels, want %d", len(seen), d.cfg.Channels)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	sim := engine.New()
	d := newDRAM(sim)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	d.Access(mem.Addr(1<<40), false, PrioDemand, nil, nil)
}

func TestBacklogReflectsQueuedWork(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	d := New(sim, cfg, 0, 256<<20)
	for i := 0; i < 32; i++ {
		d.Access(mem.Addr(i*64), false, PrioDemand, nil, nil)
	}
	q, _ := d.Backlog()
	if q == 0 {
		t.Fatal("Backlog reports empty queue with 32 requests pending")
	}
	sim.Drain(0)
	q, ahead := d.Backlog()
	if q != 0 || ahead != 0 {
		t.Fatalf("Backlog after drain = (%d,%d), want (0,0)", q, ahead)
	}
}

// Property: every request eventually completes, exactly once, and
// completions never run before arrival time. Throughput is bounded by the
// data bus (one burst per channel per burst window).
func TestAllRequestsCompleteProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		d := newDRAM(sim)
		n := int(nRaw)%200 + 1
		completed := 0
		arrive := make([]uint64, n)
		for i := 0; i < n; i++ {
			addr := mem.Addr(rng.Int63n(512<<20)) & ^mem.Addr(63)
			w := rng.Intn(3) == 0
			prio := PrioDemand
			if rng.Intn(2) == 0 {
				prio = PrioSwap
			}
			arrive[i] = sim.Now()
			at := arrive[i]
			d.Access(addr, w, prio, nil, func() {
				if sim.Now() < at {
					panic("completion before arrival")
				}
				completed++
			})
		}
		sim.Drain(1_000_000)
		return completed == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a loaded channel is never faster than the bus bound: k bursts
// need at least k*burst cycles on one channel.
func TestBandwidthBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		cfg := DRAMConfig()
		cfg.Channels = 1
		d := New(sim, cfg, 0, 256<<20)
		k := 50
		var last uint64
		for i := 0; i < k; i++ {
			addr := mem.Addr(rng.Int63n(256<<20)) & ^mem.Addr(63)
			d.Access(addr, false, PrioDemand, nil, func() { last = sim.Now() })
		}
		sim.Drain(0)
		minCycles := uint64(k) * cfg.BurstMemCycles * cfg.ClockRatio
		return last >= minCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
