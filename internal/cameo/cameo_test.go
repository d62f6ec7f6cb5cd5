package cameo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
)

func testRig() (*engine.Sim, *hmc.Controller, *CAMEO) {
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 2 << 20, NVMBytes: 16 << 20}, 16)
	ctl := hmc.NewController(sim, osm, memsim.DRAMConfig(), memsim.NVMConfig(), hmc.DefaultSwapEngineConfig())
	cfg := DefaultConfig()
	cfg.RemapEntries = 256
	cfg.RemapTableBytes = 8 << 10
	c := New(ctl, cfg)
	return sim, ctl, c
}

func slowAddr(ctl *hmc.Controller, i int) mem.Addr {
	return mem.Addr(ctl.Layout.DRAMBytes) + mem.Addr(i)*BlockBytes
}

func TestSwapOnFirstAccess(t *testing.T) {
	sim, ctl, c := testRig()
	a := slowAddr(ctl, 5000)
	ctl.Access(a, false, cache.Meta{PID: 1}, nil)
	sim.Drain(0)
	if c.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d, want 1 (swap on every slow access)", c.Stats().Swaps)
	}
	if got := c.TranslateLine(a); !ctl.Layout.IsDRAM(got) {
		t.Fatalf("block still maps to slow memory at %#x", uint64(got))
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupConflictEvictsPrevious(t *testing.T) {
	sim, ctl, c := testRig()
	fast := blk(ctl.Layout.DRAMBytes / BlockBytes)
	// Two slow blocks of the same group accessed in turn: the second evicts
	// the first back into the slow region (fast-swap semantics: to wherever
	// the second came from).
	g := fast - 7
	b1 := g + fast
	b2 := g + 2*fast
	ctl.Access(b1.base(), false, cache.Meta{PID: 1}, nil)
	sim.Drain(0)
	ctl.Access(b2.base(), false, cache.Meta{PID: 1}, nil)
	sim.Drain(0)
	if c.locate(b2) != g {
		t.Fatalf("b2 not in fast slot: %d", c.locate(b2))
	}
	if c.locate(b1) == g {
		t.Fatal("both slow blocks claim the fast slot")
	}
	if c.locate(b1) != b2 {
		t.Fatalf("fast swap should strand b1 at b2's home; b1 is at %d", c.locate(b1))
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestFastBlockAccessNoSwap(t *testing.T) {
	sim, ctl, c := testRig()
	ctl.Access(0x10000, false, cache.Meta{PID: 1}, nil)
	sim.Drain(0)
	if c.Stats().Swaps != 0 {
		t.Fatal("access to fast memory triggered a swap")
	}
}

func TestPinnedFastSlotBlocked(t *testing.T) {
	sim, ctl, c := testRig()
	// Group 0's fast slot is inside the metadata region.
	fast := blk(ctl.Layout.DRAMBytes / BlockBytes)
	b := fast // slow block of group 0
	ctl.Access(b.base(), false, cache.Meta{PID: 1}, nil)
	sim.Drain(0)
	if c.locate(b) == 0 {
		t.Fatal("block swapped into pinned metadata slot")
	}
	if c.Stats().SwapsBlocked == 0 {
		t.Fatal("no blocked swap recorded")
	}
}

// Property: CAMEO's remap state never desynchronises from the data under
// random traffic, and all requests complete.
func TestCAMEOIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim, ctl, _ := testRig()
		want, got := 0, 0
		for op := 0; op < 300; op++ {
			var a mem.Addr
			if rng.Intn(3) == 0 {
				a = mem.Addr(rng.Intn(1<<20) + (1 << 20))
			} else {
				a = slowAddr(ctl, rng.Intn(4096))
			}
			a &= ^mem.Addr(63)
			want++
			ctl.Access(a, rng.Intn(4) == 0, cache.Meta{PID: 1}, func() { got++ })
			if rng.Intn(5) == 0 {
				sim.RunUntil(sim.Now() + uint64(rng.Intn(3000)))
			}
			if rng.Intn(50) == 0 {
				sim.Drain(0)
				if err := ctl.VerifyIntegrity(); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		sim.Drain(0)
		if err := ctl.VerifyIntegrity(); err != nil {
			t.Log(err)
			return false
		}
		return want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
