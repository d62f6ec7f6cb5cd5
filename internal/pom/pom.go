// Package pom reimplements PoM (Sim et al., MICRO 2014, "Transparent
// Hardware Management of Stacked DRAM as Part of Memory") as configured by
// the PageSeer paper's Section IV-B: 2KB segments, direct-mapped swap
// groups, fast swaps, a swap threshold of K=12 accesses, and a 32KB SRC
// (segment remap cache) backed by a DRAM-resident remap table.
package pom

import (
	"fmt"

	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/obs"
)

// SegmentBytes is PoM's swap granularity.
const SegmentBytes = 2048

const segShift = 11

// Config holds PoM's parameters.
type Config struct {
	// K is the access-count threshold that triggers a swap (12, adjusted
	// for this memory timing model per Section IV-B).
	K uint32
	// CounterDecayInterval halves segment counters this often (CPU cycles).
	CounterDecayInterval uint64
	// SRCEntries and SRCWays give the segment remap cache geometry
	// (32KB like PageSeer's PRTc).
	SRCEntries int
	SRCWays    int
	SRCLatency uint64
	// RemapTableBytes sizes the DRAM-resident full remap table.
	RemapTableBytes uint64
	// CounterTableEntries bounds the per-segment counter storage.
	CounterTableEntries int
}

// DefaultConfig returns the Section IV-B configuration.
func DefaultConfig() Config {
	return Config{
		K:                    12,
		CounterDecayInterval: 100_000,
		SRCEntries:           8192, // 32KB / 4B group entries
		SRCWays:              4,
		SRCLatency:           2,
		RemapTableBytes:      512 << 10,
		CounterTableEntries:  16384,
	}
}

// Scale shrinks the SRC with the memory system, mirroring core.Config.Scale.
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	root := 1
	for (root+1)*(root+1) <= factor {
		root++
	}
	factor = root
	if s := c.SRCEntries / factor; s > 0 {
		c.SRCEntries = s
	} else {
		c.SRCEntries = 1
	}
	if s := c.CounterTableEntries / factor; s >= 64 {
		c.CounterTableEntries = s
	} else {
		c.CounterTableEntries = 64
	}
	if s := c.RemapTableBytes / uint64(factor); s >= 4096 {
		c.RemapTableBytes = s
	} else {
		c.RemapTableBytes = 4096
	}
	return c
}

// Stats counts PoM activity.
type Stats struct {
	Swaps         uint64
	SwapsDeclined uint64 // engine at capacity
	SwapsBlocked  uint64 // target slot busy or frozen
}

type seg uint64 // global segment index (addr >> 11)

// PoM is the baseline manager.
type PoM struct {
	sim *engine.Sim
	ctl *hmc.Controller
	cfg Config

	src       *hmc.MetaCache
	srcRegion hmc.MetaRegion

	fastSegs seg // number of DRAM segments == number of swap groups

	// remap is the segment permutation the SRT holds.
	remap *hmc.Remap

	counters  map[seg]uint32
	lastDecay uint64

	inflight map[seg]*job
	stats    Stats
}

type job struct {
	segs    []seg
	waiters []func()
}

// New installs a PoM manager on the controller.
func New(ctl *hmc.Controller, cfg Config) *PoM {
	p := &PoM{
		sim:      ctl.Sim,
		ctl:      ctl,
		cfg:      cfg,
		fastSegs: seg(ctl.Layout.DRAMBytes / SegmentBytes),
		remap:    ctl.NewRemap(segShift),
		counters: make(map[seg]uint32),
		inflight: make(map[seg]*job),
	}
	p.srcRegion = ctl.AllocMetaRegion(cfg.RemapTableBytes, 4)
	p.src = hmc.NewMetaCache(ctl.Sim, hmc.MetaCacheConfig{
		Name: "SRC", Entries: cfg.SRCEntries, Ways: cfg.SRCWays,
		HitLatency: cfg.SRCLatency, EntriesPerLine: 16, // 4B group entries
	}, p.srcRegion, ctl.IssueLine)
	ctl.SetManager(p)
	return p
}

// Name implements hmc.Manager.
func (p *PoM) Name() string { return "PoM" }

// Stats returns a snapshot of the counters.
func (p *PoM) Stats() Stats { return p.stats }

// SRC exposes the segment remap cache (Figure 13 reads its wait time).
func (p *PoM) SRC() *hmc.MetaCache { return p.src }

func segOf(a mem.Addr) seg   { return seg(a >> segShift) }
func (s seg) base() mem.Addr { return mem.Addr(s) << segShift }

// group returns the swap group (== fast segment index) a segment belongs
// to. Fast segments are their own group; slow segments direct-map onto one.
func (p *PoM) group(s seg) seg {
	if s < p.fastSegs {
		return s
	}
	return (s - p.fastSegs) % p.fastSegs
}

func (p *PoM) locate(s seg) seg { return seg(p.remap.Loc(uint64(s))) }

func (p *PoM) occupantOf(slot seg) seg { return seg(p.remap.Owner(uint64(slot))) }

// TranslateLine implements hmc.Manager.
func (p *PoM) TranslateLine(addr mem.Addr) mem.Addr {
	s := segOf(addr)
	off := addr - s.base()
	return p.locate(s).base() + off
}

// CheckIntegrity implements hmc.Manager.
func (p *PoM) CheckIntegrity() error {
	if err := p.ctl.Oracle.VerifyAll(p.remap.Loc); err != nil {
		return fmt.Errorf("pom: %w", err)
	}
	return nil
}

// HandleRequest implements hmc.Manager: SRC lookup on the critical path,
// counter tracking and swap trigger off it.
func (p *PoM) HandleRequest(r *hmc.Request) {
	s := segOf(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk {
		p.track(s)
	}
	p.src.AccessV(uint64(p.group(s)), false, r.Meta.V, r.RouteFn())
}

func (p *PoM) maybeDecay() {
	if p.cfg.CounterDecayInterval == 0 {
		return
	}
	now := p.sim.Now()
	for p.lastDecay+p.cfg.CounterDecayInterval <= now {
		p.lastDecay += p.cfg.CounterDecayInterval
		for s, c := range p.counters {
			c /= 2
			if c == 0 {
				delete(p.counters, s)
				continue
			}
			p.counters[s] = c
		}
		if len(p.counters) == 0 {
			rem := (now - p.lastDecay) / p.cfg.CounterDecayInterval
			p.lastDecay += rem * p.cfg.CounterDecayInterval
			break
		}
	}
}

// track counts accesses to segments whose data currently resides in slow
// memory and triggers a fast swap at K.
func (p *PoM) track(s seg) {
	p.maybeDecay()
	if p.locate(s) < p.fastSegs {
		return // already in fast memory
	}
	if len(p.counters) >= p.cfg.CounterTableEntries {
		p.evictColdestCounter()
	}
	c := p.counters[s] + 1
	p.counters[s] = c
	if c >= p.cfg.K {
		p.trySwap(s)
	}
}

func (p *PoM) evictColdestCounter() {
	var victim seg
	var vc uint32 = ^uint32(0)
	for s, c := range p.counters {
		// Lowest-segment tie-break: map iteration order is random, and a
		// tie-dependent victim would make runs nondeterministic.
		if c < vc || (c == vc && s < victim) {
			victim, vc = s, c
		}
	}
	delete(p.counters, victim)
}

// trySwap performs PoM's fast swap: segment s (slow-resident) exchanges
// with whatever currently sits in its group's fast slot.
func (p *PoM) trySwap(s seg) {
	fastSlot := p.group(s)
	slowSlot := p.locate(s)
	if slowSlot == fastSlot {
		return
	}
	if p.inflight[fastSlot] != nil || p.inflight[slowSlot] != nil {
		p.stats.SwapsBlocked++
		return
	}
	displaced := p.occupantOf(fastSlot)
	if p.frozen(s) || p.frozen(displaced) || p.pinnedSlot(fastSlot) {
		p.stats.SwapsBlocked++
		return
	}
	op := &hmc.Op{
		Swap: obs.Swap{
			Addr: uint64(s.base()), Victim: uint64(displaced.base()), HasVictim: true,
			Trigger: obs.TrigRegular, Request: p.sim.Now(),
		},
		Stages: []hmc.Stage{{
			{Src: slowSlot.base(), Dst: fastSlot.base(), Bytes: SegmentBytes},
			{Src: fastSlot.base(), Dst: slowSlot.base(), Bytes: SegmentBytes},
		}},
	}
	j := &job{segs: []seg{fastSlot, slowSlot}}
	op.OnComplete = func() {
		// Fast swap: s's data lands in the fast slot; the displaced data
		// lands where s used to be — NOT at its own home (Section II-B).
		p.remap.Place(uint64(s), uint64(fastSlot))
		p.ctl.Oracle.Exchange(uint64(fastSlot), uint64(slowSlot))
		p.ctl.IssueLine(p.srcRegion.EntryAddr(uint64(fastSlot)), true, hmc.PrioSwap, nil)
		p.src.Prefetch(uint64(fastSlot))
		delete(p.counters, s)
		p.stats.Swaps++
		for _, sg := range j.segs {
			delete(p.inflight, sg)
		}
		for _, w := range j.waiters {
			w()
		}
	}
	if !p.ctl.Engine.Start(op) {
		p.stats.SwapsDeclined++
		return
	}
	p.inflight[fastSlot] = j
	p.inflight[slowSlot] = j
}

// frozen reports whether any page overlapping segment s is DMA-frozen.
func (p *PoM) frozen(s seg) bool {
	return p.ctl.FrozenByDMA(mem.PageOf(s.base()))
}

// pinnedSlot protects the controller's remap-table region and page tables
// from being relocated by a swap.
func (p *PoM) pinnedSlot(slot seg) bool {
	a := slot.base()
	if a >= p.srcRegion.Base && uint64(a-p.srcRegion.Base) < p.srcRegion.Bytes {
		return true
	}
	return p.ctl.OS.IsPageTable(mem.PageOf(a))
}

// MMUHint implements hmc.Manager: PoM has no MMU connection.
func (p *PoM) MMUHint(mmu.Hint) {}

// FreezePage implements hmc.Manager: wait out in-flight swaps of the page's
// segments.
func (p *PoM) FreezePage(page mem.PPN, done func()) {
	segs := pageSegs(page)
	waitFor := map[*job]struct{}{}
	for _, s := range segs {
		if j, ok := p.inflight[p.locate(s)]; ok {
			waitFor[j] = struct{}{}
		}
		if j, ok := p.inflight[s]; ok {
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
func (p *PoM) UnfreezePage(mem.PPN) {}

func pageSegs(page mem.PPN) []seg {
	base := segOf(page.Addr())
	n := mem.PageSize / SegmentBytes
	out := make([]seg, n)
	for i := range out {
		out[i] = base + seg(i)
	}
	return out
}

// ResetStats zeroes the PoM counters (e.g. after warm-up), keeping all
// trained and remap state.
func (p *PoM) ResetStats() {
	p.stats = Stats{}
	p.src.ResetStats()
}
