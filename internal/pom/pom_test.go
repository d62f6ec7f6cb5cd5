package pom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SRCEntries = 128
	cfg.RemapTableBytes = 8 << 10
	cfg.CounterTableEntries = 256
	return cfg
}

func testRig() (*engine.Sim, *hmc.Controller, *PoM) { return rigWith(testConfig()) }

func rigWith(cfg Config) (*engine.Sim, *hmc.Controller, *PoM) {
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 2 << 20, NVMBytes: 16 << 20}, 16)
	ctl := hmc.NewController(sim, osm)
	p := New(ctl, cfg)
	ctl.Seal(ctl.Layout.Total() >> mem.PageShift) // the rig names frames directly
	return sim, ctl, p
}

// segOf returns the 2KB segment holding address a.
func segOf(a mem.Addr) hmc.Seg { return hmc.Seg(a >> segShift) }

func slowSeg(ctl *hmc.Controller, i int) mem.Addr {
	return mem.Addr(ctl.Layout.DRAMBytes) + mem.Addr(i)<<segShift
}

// segBase returns 2KB segment s's first address.
func segBase(s hmc.Seg) mem.Addr { return mem.Addr(s) << segShift }

func miss(sim *engine.Sim, ctl *hmc.Controller, a mem.Addr) {
	ctl.Access(a, false, cache.Meta{PID: 1}, nil)
	sim.Drain(0)
}

func TestSwapAtThresholdK(t *testing.T) {
	sim, ctl, p := testRig()
	a := slowSeg(ctl, 100)
	for i := 0; i < swapThreshold-1; i++ {
		miss(sim, ctl, a)
	}
	if p.Stats().Swaps != 0 {
		t.Fatal("swap fired below K")
	}
	miss(sim, ctl, a)
	sim.Drain(0)
	if p.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", p.Stats().Swaps)
	}
	if got := p.TranslateLine(a); !ctl.Layout.IsDRAM(got) {
		t.Fatalf("hot segment still maps to %#x (NVM)", uint64(got))
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectMappedGroup(t *testing.T) {
	_, ctl, p := testRig()
	// A slow segment's group is (index - fastSegs) % fastSegs.
	fast := hmc.Seg(ctl.Layout.DRAMBytes >> segShift)
	if p.group(0) != 0 || p.group(fast) != 0 || p.group(fast+1) != 1 {
		t.Fatalf("group mapping wrong: %d %d %d", p.group(0), p.group(fast), p.group(fast+1))
	}
	if p.group(2*fast) != 0 {
		t.Fatal("wraparound group mapping wrong")
	}
}

func TestFastSwapDisplacesToSlowHome(t *testing.T) {
	sim, ctl, p := testRig()
	// Two slow segments of the same group swap in sequence; the first's
	// data must end up at the second's original home (fast swap), not at
	// its own.
	fast := hmc.Seg(ctl.Layout.DRAMBytes >> segShift)
	// Avoid group 0..N where metadata lives.
	g := fast - 1
	s1 := g + fast   // first slow segment of group g
	s2 := g + 2*fast // second slow segment of group g
	for i := 0; i < swapThreshold; i++ {
		miss(sim, ctl, segBase(s1))
	}
	sim.Drain(0)
	if p.Loc(s1) != g {
		t.Fatalf("s1 not in fast slot: %d", p.Loc(s1))
	}
	for i := 0; i < swapThreshold; i++ {
		miss(sim, ctl, segBase(s2))
	}
	sim.Drain(0)
	if p.Loc(s2) != g {
		t.Fatalf("s2 not in fast slot: %d", p.Loc(s2))
	}
	if p.Loc(s1) != s2 {
		t.Fatalf("fast swap should strand s1 at s2's home; s1 is at %d", p.Loc(s1))
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestConflictThrashingPossible(t *testing.T) {
	sim, ctl, p := testRig()
	// PoM's direct mapping means two hot segments of one group keep
	// displacing each other — the weakness PageSeer Section V-A calls out.
	fast := hmc.Seg(ctl.Layout.DRAMBytes >> segShift)
	g := fast - 2
	s1, s2 := g+fast, g+2*fast
	for round := 0; round < 3; round++ {
		for i := 0; i < swapThreshold; i++ {
			miss(sim, ctl, segBase(s1))
		}
		for i := 0; i < swapThreshold; i++ {
			miss(sim, ctl, segBase(s2))
		}
		sim.Drain(0)
	}
	if p.Stats().Swaps < 4 {
		t.Fatalf("expected repeated displacement swaps, got %d", p.Stats().Swaps)
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedFastSlotBlocksSwap(t *testing.T) {
	sim, ctl, p := testRig()
	// Group 0's fast slot hosts the remap table (reserved first): swaps
	// into it must be blocked.
	s := p.FastUnits() // slow segment of group 0
	for i := 0; i < swapThreshold+3; i++ {
		miss(sim, ctl, segBase(s))
	}
	sim.Drain(0)
	if p.Loc(s) == 0 {
		t.Fatal("segment swapped into a pinned metadata slot")
	}
	if p.Stats().SwapsBlocked == 0 {
		t.Fatal("no blocked swap recorded")
	}
}

func TestCounterDecay(t *testing.T) {
	sim, ctl, p := testRig()
	a := slowSeg(ctl, 50)
	for i := 0; i < swapThreshold-2; i++ {
		miss(sim, ctl, a)
	}
	// Let counters decay well below threshold, then a few more accesses
	// must not trigger a swap.
	sim.RunUntil(sim.Now() + 10*decayInterval)
	for i := 0; i < 2; i++ {
		miss(sim, ctl, a)
	}
	sim.Drain(0)
	if p.Stats().Swaps != 0 {
		t.Fatal("decayed counter still triggered a swap")
	}
}

// TestCounterTableEvictsOnlyToAdmit: a full counter table evicts its
// coldest counter only to admit a new segment. A segment that already
// holds a counter keeps counting even when it is the coldest, so it
// reaches K.
func TestCounterTableEvictsOnlyToAdmit(t *testing.T) {
	cfg := testConfig()
	cfg.CounterTableEntries = 2
	sim, ctl, p := rigWith(cfg)
	// b is the lower segment, so it loses every (count, segment) tie.
	b, a := slowSeg(ctl, 10), slowSeg(ctl, 20)
	miss(sim, ctl, b)
	miss(sim, ctl, a) // the table is full: b and a at 1
	miss(sim, ctl, b)
	if c, _ := p.counters.Get(uint64(segOf(b))); c != 2 {
		t.Fatalf("b's counter = %d after its second access, want 2", c)
	}
	for i := 2; i < swapThreshold; i++ {
		miss(sim, ctl, b)
	}
	sim.Drain(0)
	if p.Stats().Swaps != 1 || !ctl.Layout.IsDRAM(p.TranslateLine(b)) {
		t.Fatalf("b reached K but swaps = %d and it maps to %#x", p.Stats().Swaps, uint64(p.TranslateLine(b)))
	}
	if c, _ := p.counters.Get(uint64(segOf(a))); c != 1 {
		t.Fatalf("a's counter = %d, want 1: nothing needed its slot", c)
	}
}

func TestWritebackRoutedThroughRemap(t *testing.T) {
	sim, ctl, _ := testRig()
	a := slowSeg(ctl, 100)
	for i := 0; i < swapThreshold; i++ {
		miss(sim, ctl, a)
	}
	sim.Drain(0)
	before := ctl.DRAM.Stats().Writes
	ctl.Access(a, true, cache.Meta{Writeback: true}, nil)
	sim.Drain(0)
	if ctl.DRAM.Stats().Writes == before {
		t.Fatal("writeback to a swapped-in segment did not reach DRAM")
	}
}

// Property: random traffic never desynchronises PoM's remap state from the
// data movement (oracle-checked), and all requests complete.
func TestPoMIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim, ctl, _ := testRig()
		want, got := 0, 0
		for op := 0; op < 400; op++ {
			var a mem.Addr
			if rng.Intn(3) == 0 {
				a = mem.Addr(rng.Intn(1<<20) + (1 << 20)) // DRAM, above metadata
			} else {
				a = slowSeg(ctl, rng.Intn(512))
			}
			a &= ^mem.Addr(63)
			want++
			ctl.Access(a, rng.Intn(4) == 0, cache.Meta{PID: rng.Intn(2)}, func() { got++ })
			if rng.Intn(6) == 0 {
				sim.RunUntil(sim.Now() + uint64(rng.Intn(3000)))
			}
			if rng.Intn(60) == 0 {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyIntegrityCatchesMutation(t *testing.T) {
	sim, ctl, p := testRig()
	for i := 0; i < 4; i++ {
		a := slowSeg(ctl, 100+i)
		for j := 0; j < swapThreshold; j++ {
			miss(sim, ctl, a)
		}
	}
	sim.Drain(0)
	if p.Stats().Swaps == 0 {
		t.Fatal("no swaps to corrupt")
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatalf("uncorrupted run fails: %v", err)
	}
	s := segOf(slowSeg(ctl, 100))
	if p.Loc(s) == s {
		t.Fatal("the first hot segment never left home")
	}
	p.Remap().Place(uint64(s), uint64(s))
	if err := ctl.VerifyIntegrity(); err == nil {
		t.Fatal("VerifyIntegrity accepted a translation the oracle contradicts")
	}
}
