// Package cameo reimplements CAMEO (Chou, Jaleel, Qureshi; MICRO 2014) as
// the PageSeer paper's Section II-B describes it: migration at 64B block
// granularity, a swap triggered on *every* access to a block in slow
// memory, direct-mapped swap groups (each group owns one fast-memory block
// and the set of slow blocks congruent to it), only one slow block of a
// group resident in fast memory at a time, and fast swaps.
//
// CAMEO is not part of the paper's evaluation (PoM and MemPod are); it is
// included as an extension baseline because the paper's background section
// defines it precisely and it brackets the design space from the
// fine-granularity end: minimal swap bandwidth per decision, maximal
// metadata pressure and conflict-miss exposure.
package cameo

import (
	"fmt"

	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/obs/ledger"
)

// BlockBytes is CAMEO's migration granularity: one cache line.
const BlockBytes = mem.LineSize

// Config holds CAMEO's parameters.
type Config struct {
	// RemapEntries and RemapWays size the remap cache (one entry per swap
	// group, like PoM's SRC).
	RemapEntries int
	RemapWays    int
	RemapLatency uint64
	// RemapTableBytes sizes the DRAM-resident full remap table.
	RemapTableBytes uint64
}

// DefaultConfig returns a 32KB remap cache, matching the other schemes.
func DefaultConfig() Config {
	return Config{
		RemapEntries:    8192,
		RemapWays:       4,
		RemapLatency:    2,
		RemapTableBytes: 512 << 10,
	}
}

// Scale shrinks the remap cache with the memory system (square root, like
// the other schemes' SRAM structures).
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	root := 1
	for (root+1)*(root+1) <= factor {
		root++
	}
	if s := c.RemapEntries / root; s > 0 {
		c.RemapEntries = s
	}
	if s := c.RemapTableBytes / uint64(factor); s >= 4096 {
		c.RemapTableBytes = s
	} else {
		c.RemapTableBytes = 4096
	}
	return c
}

// Stats counts CAMEO activity.
type Stats struct {
	Swaps        uint64
	SwapsDropped uint64 // engine at capacity (swap-on-every-access floods it)
	SwapsBlocked uint64 // block busy or frozen
}

type blk uint64 // global block index (addr >> 6)

// CAMEO is the baseline manager.
type CAMEO struct {
	sim *engine.Sim
	ctl *hmc.Controller
	cfg Config

	remapCache *hmc.MetaCache
	region     hmc.MetaRegion

	fastBlocks blk

	// location[b] = slot currently holding block b's data;
	// occupant[slot] = block whose data the slot holds. Identity if absent.
	location map[blk]blk
	occupant map[blk]blk
	inflight map[blk]*job

	stats Stats
}

type job struct {
	waiters []func()
	lid     uint64 // swap-provenance record ID (0 when the ledger is off)
	pid     uint64 // pagemap pending-swap handle (0 when the pagemap is off)
}

// New installs a CAMEO manager on the controller.
func New(ctl *hmc.Controller, cfg Config) *CAMEO {
	c := &CAMEO{
		sim:        ctl.Sim,
		ctl:        ctl,
		cfg:        cfg,
		fastBlocks: blk(ctl.Layout.DRAMBytes / BlockBytes),
		location:   make(map[blk]blk),
		occupant:   make(map[blk]blk),
		inflight:   make(map[blk]*job),
	}
	c.region = ctl.AllocMetaRegion(cfg.RemapTableBytes, 4)
	c.remapCache = hmc.NewMetaCache(ctl.Sim, hmc.MetaCacheConfig{
		Name: "CAMEORemap", Entries: cfg.RemapEntries, Ways: cfg.RemapWays,
		HitLatency: cfg.RemapLatency, EntriesPerLine: 16,
	}, c.region, ctl.IssueLine)
	ctl.SetManager(c)
	return c
}

// Name implements hmc.Manager.
func (c *CAMEO) Name() string { return "CAMEO" }

// Stats returns a snapshot of the counters.
func (c *CAMEO) Stats() Stats { return c.stats }

// RemapCache exposes the remap cache for stats.
func (c *CAMEO) RemapCache() *hmc.MetaCache { return c.remapCache }

func blockOf(a mem.Addr) blk { return blk(a >> mem.LineShift) }
func (b blk) base() mem.Addr { return mem.Addr(b) << mem.LineShift }

// group returns a block's swap group (== its fast-block index).
func (c *CAMEO) group(b blk) blk {
	if b < c.fastBlocks {
		return b
	}
	return (b - c.fastBlocks) % c.fastBlocks
}

func (c *CAMEO) locate(b blk) blk {
	if l, ok := c.location[b]; ok {
		return l
	}
	return b
}

func (c *CAMEO) occupantOf(slot blk) blk {
	if o, ok := c.occupant[slot]; ok {
		return o
	}
	return slot
}

// TranslateLine implements hmc.Manager.
func (c *CAMEO) TranslateLine(addr mem.Addr) mem.Addr {
	b := blockOf(addr)
	return c.locate(b).base() + (addr - b.base())
}

// CheckIntegrity implements hmc.Manager.
func (c *CAMEO) CheckIntegrity() error {
	if err := c.ctl.Oracle.VerifyAll(func(d uint64) uint64 {
		return uint64(c.locate(blk(d)))
	}); err != nil {
		return fmt.Errorf("cameo: %w", err)
	}
	return nil
}

// HandleRequest implements hmc.Manager: remap lookup on the critical path;
// every access whose block currently resides in slow memory triggers a
// fast swap with the group's fast slot.
func (c *CAMEO) HandleRequest(r *hmc.Request) {
	b := blockOf(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk && c.locate(b) >= c.fastBlocks {
		c.trySwap(b)
	}
	c.remapCache.AccessV(uint64(c.group(b)), false, r.Meta.V, r.RouteFn())
}

// trySwap performs CAMEO's fast swap: block b exchanges with whatever
// occupies its group's fast slot.
func (c *CAMEO) trySwap(b blk) {
	fastSlot := c.group(b)
	slowSlot := c.locate(b)
	if slowSlot == fastSlot {
		return
	}
	if c.inflight[fastSlot] != nil || c.inflight[slowSlot] != nil {
		c.stats.SwapsBlocked++
		return
	}
	displaced := c.occupantOf(fastSlot)
	if c.frozen(b) || c.frozen(displaced) || c.pinnedSlot(fastSlot) {
		c.stats.SwapsBlocked++
		return
	}
	op := &hmc.Op{
		Stages: []hmc.Stage{{
			{Src: slowSlot.base(), Dst: fastSlot.base(), Bytes: BlockBytes},
			{Src: fastSlot.base(), Dst: slowSlot.base(), Bytes: BlockBytes},
		}},
	}
	j := &job{}
	op.OnComplete = func() {
		c.setOccupant(fastSlot, b)
		c.setOccupant(slowSlot, displaced)
		c.ctl.Oracle.Exchange(uint64(fastSlot), uint64(slowSlot))
		c.ctl.IssueLine(c.region.EntryAddr(uint64(fastSlot)), true, hmc.PrioSwap, nil)
		if led := c.ctl.Ledger(); led != nil {
			now := c.sim.Now()
			led.RemapCommitted(j.lid, now)
			led.Evicted(uint64(displaced.base()), now)
		}
		if pm := c.ctl.PageMap(); pm != nil {
			now := c.sim.Now()
			pm.Committed(j.pid, now)
			pm.Evicted(uint64(displaced.base()), now)
		}
		c.stats.Swaps++
		delete(c.inflight, fastSlot)
		delete(c.inflight, slowSlot)
		for _, w := range j.waiters {
			w()
		}
	}
	led := c.ctl.Ledger()
	if led != nil {
		now := c.sim.Now()
		dramB, nvmB := c.ctl.OpBytes(op)
		j.lid = led.SwapStarted(uint64(b.base()), uint64(displaced.base()), true,
			ledger.TrigRegular, now, now, dramB, nvmB)
		op.LedgerID = j.lid
	}
	if pm := c.ctl.PageMap(); pm != nil {
		j.pid = pm.SwapStarted(uint64(b.base()), uint64(displaced.base()), true,
			ledger.TrigRegular, c.sim.Now())
		op.PageMapID = j.pid
	}
	if !c.ctl.Engine.Start(op) {
		// Swap-on-every-access floods the buffers; CAMEO just retries on
		// the next access (the block stays slow meanwhile).
		led.Abort(j.lid)
		c.ctl.PageMap().Abort(j.pid)
		c.stats.SwapsDropped++
		return
	}
	c.inflight[fastSlot] = j
	c.inflight[slowSlot] = j
}

func (c *CAMEO) setOccupant(slot, data blk) {
	if slot == data {
		delete(c.occupant, slot)
		delete(c.location, data)
		return
	}
	c.occupant[slot] = data
	c.location[data] = slot
}

func (c *CAMEO) frozen(b blk) bool {
	return c.ctl.FrozenByDMA(mem.PageOf(b.base()))
}

func (c *CAMEO) pinnedSlot(slot blk) bool {
	a := slot.base()
	if a >= c.region.Base && uint64(a-c.region.Base) < c.region.Bytes {
		return true
	}
	return c.ctl.OS.IsPageTable(mem.PageOf(a))
}

// MMUHint implements hmc.Manager: CAMEO has no MMU connection.
func (c *CAMEO) MMUHint(mmu.Hint) {}

// FreezePage implements hmc.Manager: wait out in-flight swaps of the page's
// blocks.
func (c *CAMEO) FreezePage(page mem.PPN, done func()) {
	base := blockOf(page.Addr())
	waitFor := map[*job]struct{}{}
	for i := 0; i < mem.LinesPerPage; i++ {
		b := base + blk(i)
		if j, ok := c.inflight[c.locate(b)]; ok {
			waitFor[j] = struct{}{}
		}
		if j, ok := c.inflight[b]; ok {
			waitFor[j] = struct{}{}
		}
	}
	if len(waitFor) == 0 {
		done()
		return
	}
	remaining := len(waitFor)
	for j := range waitFor {
		j.waiters = append(j.waiters, func() {
			remaining--
			if remaining == 0 {
				done()
			}
		})
	}
}

// UnfreezePage implements hmc.Manager.
func (c *CAMEO) UnfreezePage(mem.PPN) {}

// ResetStats zeroes the counters (e.g. after warm-up).
func (c *CAMEO) ResetStats() {
	c.stats = Stats{}
	c.remapCache.ResetStats()
}
