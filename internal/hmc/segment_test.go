package hmc_test

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mempod"
	"pageseer/internal/memsim"
	"pageseer/internal/pom"
)

// segmentScheme installs one segment scheme on a controller and returns
// its core and its commit count (the scheme's hook ran that often).
type segmentScheme struct {
	name    string
	install func(*hmc.Controller) (*hmc.Segments, func() uint64)
}

var segmentSchemes = []segmentScheme{
	{"pom", func(ctl *hmc.Controller) (*hmc.Segments, func() uint64) {
		p := pom.New(ctl, pom.DefaultConfig())
		return p.Segments, func() uint64 { return p.Stats().Swaps }
	}},
	{"mempod", func(ctl *hmc.Controller) (*hmc.Segments, func() uint64) {
		m := mempod.New(ctl, mempod.DefaultConfig())
		return m.Segments, func() uint64 { return m.Stats().Migrations }
	}},
}

// segmentRig builds a 2MB DRAM + 16MB NVM controller with the scheme
// installed and one process whose page table is mapped.
func segmentRig(sc segmentScheme) (*engine.Sim, *hmc.Controller, *hmc.Segments, func() uint64, mem.PPN) {
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 2 << 20, NVMBytes: 16 << 20}, 16)
	ctl := hmc.NewController(sim, osm, memsim.DRAMConfig(), memsim.NVMConfig(), hmc.DefaultSwapEngineConfig())
	g, commits := sc.install(ctl)
	as := osm.NewProcess(1)
	osm.WalkVA(1, 0x1000)
	return sim, ctl, g, commits, as.Root()
}

// TestSegmentCore drives the core PoM and MemPod share: pinned and busy
// slots refuse an exchange, a commit moves the remap and the oracle
// together and runs the scheme's hook, and CheckIntegrity catches a remap
// the oracle contradicts.
func TestSegmentCore(t *testing.T) {
	for _, sc := range segmentSchemes {
		t.Run(sc.name, func(t *testing.T) {
			sim, ctl, g, commits, root := segmentRig(sc)
			fastSegs := hmc.Seg(ctl.Layout.DRAMBytes / hmc.SegmentBytes)
			data := fastSegs + 100 // an NVM segment at home
			dst := fastSegs - 1    // the last DRAM slot: above the remap table
			if g.Pinned(dst) {
				t.Fatal("test slot is pinned")
			}

			// Refusals: nothing starts, nothing moves.
			pt := hmc.SegOf(root.Addr())
			for _, c := range []struct {
				name string
				dst  hmc.Seg
			}{
				{"metadata slot", 0}, // the remap table is reserved first
				{"page-table slot", pt},
			} {
				if !g.Pinned(c.dst) {
					t.Fatalf("%s %d is not pinned", c.name, c.dst)
				}
				if got := g.Exchange(data, c.dst, uint64(c.dst)); got != hmc.SlotBusy {
					t.Fatalf("exchange into the %s: got %d, want SlotBusy", c.name, got)
				}
			}
			if ctl.Engine.Stats().OpsStarted != 0 {
				t.Fatal("a refused exchange started an op")
			}

			if got := g.Exchange(data, dst, uint64(data)); got != hmc.Exchanged {
				t.Fatalf("exchange: got %d, want Exchanged", got)
			}
			if !g.Busy(dst) || !g.Busy(data) {
				t.Fatal("a running exchange does not hold both slots")
			}
			for _, c := range []struct {
				data, dst hmc.Seg
				want      int
			}{
				{data + 1, dst, hmc.SlotBusy},      // the target slot is held
				{data, dst - 1, hmc.SlotBusy},      // the source slot is held
				{data + 1, dst - 1, hmc.Exchanged}, // free on both sides
			} {
				if got := g.Exchange(c.data, c.dst, uint64(c.data)); got != c.want {
					t.Fatalf("exchange %d -> %d while %d -> %d runs: got %d, want %d",
						c.data, c.dst, data, dst, got, c.want)
				}
			}
			if g.Loc(data) != data {
				t.Fatal("the remap moved before the exchange committed")
			}

			sim.Drain(0)
			if n := commits(); n != 2 {
				t.Fatalf("the scheme's hook ran %d times, want 2", n)
			}
			displaced := dst // dst's data is its own: nothing moved it yet
			for _, c := range []struct{ data, slot hmc.Seg }{{data, dst}, {displaced, data}} {
				if g.Loc(c.data) != c.slot || g.Owner(c.slot) != c.data {
					t.Fatalf("remap: %d at %d, slot %d holds %d; want %d at %d",
						c.data, g.Loc(c.data), c.slot, g.Owner(c.slot), c.data, c.slot)
				}
				if got := ctl.Oracle.Location(uint64(c.data)); got != uint64(c.slot) {
					t.Fatalf("oracle: %d at %d, want %d", c.data, got, c.slot)
				}
			}
			if g.Busy(dst) || g.Busy(data) {
				t.Fatal("a committed exchange still holds its slots")
			}
			if got := g.TranslateLine(data.Base() + 3*mem.LineSize); got != dst.Base()+3*mem.LineSize {
				t.Fatalf("TranslateLine = %#x, want %#x", uint64(got), uint64(dst.Base()+3*mem.LineSize))
			}
			if err := ctl.VerifyIntegrity(); err != nil {
				t.Fatalf("uncorrupted run fails: %v", err)
			}

			// Send the moved segment home in the scheme's table alone.
			g.Remap().Place(uint64(data), uint64(data))
			if err := ctl.VerifyIntegrity(); err == nil {
				t.Fatal("VerifyIntegrity accepted a translation the oracle contradicts")
			}
		})
	}
}

// TestZeroAllocDeclinedExchange: an exchange the swap engine declines
// allocates nothing, for both schemes.
func TestZeroAllocDeclinedExchange(t *testing.T) {
	for _, sc := range segmentSchemes {
		t.Run(sc.name, func(t *testing.T) {
			sim, ctl, g, _, _ := segmentRig(sc)
			fastSegs := hmc.Seg(ctl.Layout.DRAMBytes / hmc.SegmentBytes)
			maxOps := hmc.DefaultSwapEngineConfig().MaxOps
			for i := 0; i < maxOps; i++ {
				s := hmc.Seg(i)
				if got := g.Exchange(fastSegs+100+s, fastSegs-1-s, 0); got != hmc.Exchanged {
					t.Fatalf("exchange %d: got %d, want Exchanged", i, got)
				}
			}
			data, dst := fastSegs+200, fastSegs-100
			allocs := testing.AllocsPerRun(10, func() {
				if got := g.Exchange(data, dst, 0); got != hmc.EngineFull {
					t.Fatalf("exchange with every buffer busy: got %d, want EngineFull", got)
				}
			})
			if allocs != 0 {
				t.Fatalf("a declined exchange allocates %.1f times, want 0", allocs)
			}
			sim.Drain(0)
		})
	}
}
