package hmc_test

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mempod"
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
	ctl := hmc.NewController(sim, osm)
	g, commits := sc.install(ctl)
	as := osm.NewProcess(1)
	osm.WalkVA(1, 0x1000)
	ctl.Seal(ctl.Layout.Total() >> mem.PageShift) // the rig names frames directly
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
			fastSegs := g.FastUnits()
			data := fastSegs + 100 // an NVM segment at home
			dst := fastSegs - 1    // the last DRAM slot: above the remap table
			if g.Pinned(dst) {
				t.Fatal("test slot is pinned")
			}

			// Refusals: nothing starts, nothing moves.
			pt := g.Unit(root.Addr())
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
			at := func(s hmc.Seg) mem.Addr { return mem.Addr(s)<<ctl.UnitShift() + 3*mem.LineSize }
			if got := g.TranslateLine(at(data)); got != at(dst) {
				t.Fatalf("TranslateLine = %#x, want %#x", uint64(got), uint64(at(dst)))
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
			sim, _, g, _, _ := segmentRig(sc)
			fastSegs := g.FastUnits()
			for i := 0; i < hmc.MaxOps; i++ {
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

// pageRig builds segmentRig's memory with a page-unit exchange core (a
// PRT-like table: 4B entries, 18 to a line) whose hook counts commits and
// keeps the last one. It returns an NVM page at home and the last DRAM
// frame, above the table.
func pageRig(t *testing.T) (*engine.Sim, *hmc.Controller, *hmc.Segments, *int, *hmc.Move, hmc.Seg, hmc.Seg) {
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 2 << 20, NVMBytes: 16 << 20}, 16)
	ctl := hmc.NewController(sim, osm)
	commits, last := new(int), new(hmc.Move)
	g := hmc.NewSegments(ctl, "pages", mem.PageShift, hmc.MetaCacheConfig{
		Name: "PRTc", Entries: 64, Ways: 4, HitLatency: 2, EntriesPerLine: 18,
	}, 32<<10, func(m hmc.Move) { *commits, *last = *commits+1, m })
	ctl.Seal(ctl.Layout.Total() >> mem.PageShift)
	if ctl.UnitShift() != mem.PageShift {
		t.Fatalf("UnitShift = %d, want %d", ctl.UnitShift(), mem.PageShift)
	}
	dramPages := hmc.Seg(ctl.Layout.DRAMPages())
	return sim, ctl, g, commits, last, dramPages + 100, dramPages - 1
}

// at fails t unless unit d's data sits in slot s in both the core's remap
// and the oracle.
func at(t *testing.T, ctl *hmc.Controller, g *hmc.Segments, d, s hmc.Seg) {
	t.Helper()
	if g.Loc(d) != s || g.Owner(s) != d {
		t.Fatalf("remap: %d at %d, slot %d holds %d; want %d at %d", d, g.Loc(d), s, g.Owner(s), d, s)
	}
	if got := ctl.Oracle.Location(uint64(d)); got != uint64(s) {
		t.Fatalf("oracle: %d at %d, want %d", d, got, s)
	}
}

// TestPageUnitCore drives the core at PageSeer's 4KB unit through all three
// shapes: a pair exchange, an optimized slow swap on the pair it leaves,
// and the restore that sends everything home. Each commits the remap and
// the oracle together and writes the destination's remap-table line; the
// slow swap holds its three slots until then and moves 3 pages in, 3 out;
// the restore refreshes no remap-cache entry.
func TestPageUnitCore(t *testing.T) {
	sim, ctl, g, commits, last, n, d := pageRig(t)
	n2 := n + 1
	step := func(m hmc.Move, held []hmc.Seg) (lines uint64, dramWrites uint64, prefetches uint64) {
		t.Helper()
		sw, dram, rc := ctl.Engine.Stats(), ctl.DRAM.Stats(), g.RemapCache().Stats()
		if got := g.Start(m); got != hmc.Exchanged {
			t.Fatalf("shape %d: got %d, want Exchanged", m.Shape, got)
		}
		for _, s := range held {
			if !g.Busy(s) {
				t.Fatalf("shape %d: a running exchange does not hold slot %d", m.Shape, s)
			}
		}
		if got := g.Start(hmc.Move{Data: n + 2, Dst: held[len(held)-1]}); got != hmc.SlotBusy {
			t.Fatalf("shape %d: exchange into a held slot: got %d, want SlotBusy", m.Shape, got)
		}
		want := *commits + 1
		sim.Drain(0)
		if *commits != want {
			t.Fatalf("shape %d: the hook ran %d times, want %d", m.Shape, *commits, want)
		}
		for _, s := range held {
			if g.Busy(s) {
				t.Fatalf("shape %d: a committed exchange still holds slot %d", m.Shape, s)
			}
		}
		sw2 := ctl.Engine.Stats()
		if sw2.LinesRead-sw.LinesRead != sw2.LinesWritten-sw.LinesWritten {
			t.Fatalf("shape %d: %d lines read, %d written", m.Shape, sw2.LinesRead-sw.LinesRead, sw2.LinesWritten-sw.LinesWritten)
		}
		return sw2.LinesRead - sw.LinesRead, ctl.DRAM.Stats().Writes - dram.Writes,
			g.RemapCache().Stats().Prefetches - rc.Prefetches
	}

	// Pair: n's data into d, d's into n's slot.
	lines, writes, pf := step(hmc.Move{Shape: hmc.Pair, Data: n, Dst: d, Key: uint64(n)}, []hmc.Seg{n, d})
	at(t, ctl, g, n, d)
	at(t, ctl, g, d, n)
	if last.Victim != d || lines != 2*mem.LinesPerPage || pf != 1 || writes != mem.LinesPerPage+1 {
		t.Fatalf("pair: victim %d, %d lines each way, %d prefetches, %d DRAM writes; want %d, %d, 1, %d",
			last.Victim, lines, pf, writes, d, 2*mem.LinesPerPage, mem.LinesPerPage+1)
	}
	if got := g.TranslateLine(mem.PPN(n).Addr() + 3*mem.LineSize); got != mem.PPN(d).Addr()+3*mem.LineSize {
		t.Fatalf("TranslateLine = %#x, want %#x", uint64(got), uint64(mem.PPN(d).Addr()+3*mem.LineSize))
	}

	// Slow: d holds its partner n, which goes home; n's slot's data (d's)
	// rides the buffer to n2's slot, and n2 moves into d.
	lines, writes, _ = step(hmc.Move{Shape: hmc.Slow, Data: n2, Dst: d, Key: uint64(n2)}, []hmc.Seg{n2, n, d})
	at(t, ctl, g, n, n)
	at(t, ctl, g, n2, d)
	at(t, ctl, g, d, n2)
	if last.Victim != n || lines != 3*mem.LinesPerPage || writes != mem.LinesPerPage+1 {
		t.Fatalf("slow: victim %d, %d lines each way, %d DRAM writes; want %d, %d, %d",
			last.Victim, lines, writes, n, 3*mem.LinesPerPage, mem.LinesPerPage+1)
	}

	// Restore: d comes home and n2 with it.
	lines, writes, pf = step(hmc.Move{Shape: hmc.Restore, Data: d, Dst: d}, []hmc.Seg{n2, d})
	for _, s := range []hmc.Seg{n, n2, d} {
		at(t, ctl, g, s, s)
	}
	if last.Victim != n2 || lines != 2*mem.LinesPerPage || pf != 0 || writes != mem.LinesPerPage+1 {
		t.Fatalf("restore: victim %d, %d lines each way, %d prefetches, %d DRAM writes; want %d, %d, 0, %d",
			last.Victim, lines, pf, writes, n2, 2*mem.LinesPerPage, mem.LinesPerPage+1)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocCommittedExchange: at the page unit, a committed pair
// exchange, optimized slow swap and restore allocate nothing in steady
// state — start, transfer, commit and hook included.
func TestZeroAllocCommittedExchange(t *testing.T) {
	sim, _, g, commits, _, n, d := pageRig(t)
	cycle := func() {
		for _, m := range []hmc.Move{
			{Shape: hmc.Pair, Data: n, Dst: d, Key: uint64(n)},
			{Shape: hmc.Slow, Data: n + 1, Dst: d, Key: uint64(n + 1)},
			{Shape: hmc.Restore, Data: d, Dst: d},
		} {
			if got := g.Start(m); got != hmc.Exchanged {
				t.Fatalf("shape %d: got %d, want Exchanged", m.Shape, got)
			}
			sim.Drain(0)
		}
	}
	// Warm up until every event-wheel slot and record pool has reached
	// its high-water mark: a slot grows the first time the clock passes
	// it busy, and one cycle spans only a few wheel turns.
	for i := 0; i < 100; i++ {
		cycle()
	}
	before := *commits
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Fatalf("three committed exchanges allocate %.1f times, want 0", allocs)
	}
	if *commits == before {
		t.Fatal("no exchange committed")
	}
}
