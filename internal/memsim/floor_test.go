package memsim

import (
	"fmt"
	"math/rand"
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs/attrib"
)

// scanFloor is the bank scan floor replaced: each bank's lowest start
// bound — a row hit on an open bank, an activate on a closed one — and
// the minimum over all banks, rescanned on every pick.
func (m *Module) scanFloor(c *channel, now uint64) uint64 {
	floor := ^uint64(0)
	for i := range c.banks {
		bk := &c.banks[i]
		ready := max(bk.nextReady, c.busFree)
		if bk.openRow == -1 {
			floor = min(floor, max(now+m.tRCD+m.tCAS, ready))
		} else {
			floor = min(floor, max(now+m.tCAS, ready))
		}
	}
	return floor
}

// floorChecked is a Module whose every scheduling attempt on a channel
// first checks that channel's O(1) floor against scanFloor. A pick runs
// only inside trySchedule, which only Access and a channel's wakeup call,
// so wrapping both covers every pick.
type floorChecked struct {
	*Module
	t      *testing.T
	checks int
}

func newFloorChecked(t *testing.T, sim *engine.Sim, cfg Config) *floorChecked {
	f := &floorChecked{Module: New(sim, cfg, 0, 64<<20), t: t}
	for ch := range f.chans {
		wake := f.chans[ch].wakeFn
		f.chans[ch].wakeFn = func() {
			f.check(ch)
			wake()
		}
	}
	return f
}

func (f *floorChecked) check(ch int) {
	f.checks++
	now := f.sim.Now()
	c := &f.chans[ch]
	got, want := f.floor(c, now), f.scanFloor(c, now)
	if got != want {
		f.t.Fatalf("cycle %d, channel %d: floor %d, bank scan %d (busFree %d, opened %v)",
			now, ch, got, want, c.busFree, c.opened)
	}
}

func (f *floorChecked) Access(addr mem.Addr, write bool, prio Priority, v *attrib.Vector, done func()) {
	ch, _, _ := f.locate(mem.LineOf(addr))
	f.check(ch)
	f.Module.Access(addr, write, prio, v, done)
}

// TestFloorMatchesBankScan drives random DRAM and NVM traffic — banks that
// stay closed, writes, swap aging, Promote — and holds the pick floor to
// the full bank scan it replaced at every pick.
func TestFloorMatchesBankScan(t *testing.T) {
	fourBanks := func(c Config) Config {
		c.RanksPerChannel, c.BanksPerRank = 1, 4 // genOps opens all four
		return c
	}
	for _, g := range []struct {
		name string
		cfg  Config
	}{
		{"DRAM", DRAMConfig()}, // genOps leaves four of the eight banks closed
		{"NVM", NVMConfig()},   // and twelve of the sixteen
		{"DRAM-4bank", fourBanks(DRAMConfig())},
		{"NVM-4bank", fourBanks(NVMConfig())},
	} {
		for _, age := range []uint64{0, 60, 400} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/age%d/seed%d", g.name, age, seed), func(t *testing.T) {
					cfg := g.cfg
					cfg.SwapAgeLimit = age
					sim := engine.New()
					f := newFloorChecked(t, sim, cfg)
					replay(sim, f, f.burst, genOps(rand.New(rand.NewSource(seed)), cfg, 2000))
					if f.checks < 2000 {
						t.Fatalf("only %d floor checks", f.checks)
					}
				})
			}
		}
	}
}
