// Package pom reimplements PoM (Sim et al., MICRO 2014, "Transparent
// Hardware Management of Stacked DRAM as Part of Memory") as configured by
// the PageSeer paper's Section IV-B: 2KB segments, direct-mapped swap
// groups, fast swaps, a swap threshold of K=12 accesses, and a 32KB SRC
// (segment remap cache) backed by a DRAM-resident remap table.
package pom

import (
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
)

// PoM's fixed parameters.
const (
	// swapThreshold is the access count that triggers a swap: K=12,
	// adjusted for this memory timing model (Section IV-B).
	swapThreshold = 12
	// decayInterval halves the segment counters this often, in CPU cycles.
	// Modelling choice: the same period as PageSeer's HPT decay (Table II).
	decayInterval = 100_000
	// srcWays and srcLatency give the SRC's associativity and hit latency
	// in CPU cycles, those of PageSeer's PRTc (Table II).
	srcWays    = 4
	srcLatency = 2
)

// Config holds PoM's parameters that vary with the memory scale.
type Config struct {
	// SRCEntries sizes the segment remap cache (32KB like PageSeer's PRTc,
	// Section IV-B).
	SRCEntries int
	// RemapTableBytes sizes the DRAM-resident full remap table.
	RemapTableBytes uint64
	// CounterTableEntries bounds the per-segment counter storage.
	CounterTableEntries int
}

// DefaultConfig returns the Section IV-B configuration.
func DefaultConfig() Config {
	return Config{
		SRCEntries:          8192, // 32KB / 4B group entries
		RemapTableBytes:     512 << 10,
		CounterTableEntries: 16384,
	}
}

// segShift is log2 of PoM's swap unit, the 2KB segment.
const segShift = 11

// SRC returns the segment remap cache's geometry: one 4B entry per swap
// group, 16 to a line.
func (c Config) SRC() hmc.MetaCacheConfig {
	return hmc.MetaCacheConfig{
		Name: "SRC", Entries: c.SRCEntries, Ways: srcWays, HitLatency: srcLatency,
		EntriesPerLine: 16,
	}
}

// Scale shrinks the SRC and the counter table with the memory system, by
// the same square root as PageSeer's caches (hmc.SRAMRoot).
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	root := hmc.SRAMRoot(factor)
	c.SRCEntries = max(c.SRCEntries/root, 1)
	c.CounterTableEntries = max(c.CounterTableEntries/root, 64)
	c.RemapTableBytes = max(c.RemapTableBytes/uint64(root), 4096)
	return c
}

// Stats counts PoM activity.
type Stats struct {
	Swaps         uint64
	SwapsDeclined uint64 // engine at capacity
	SwapsBlocked  uint64 // a slot held by a running swap, or the fast slot pinned
}

// PoM is the baseline manager: K-threshold counters and direct-mapped swap
// groups over the shared exchange core.
type PoM struct {
	*hmc.Segments

	sim *engine.Sim
	cfg Config

	// counters holds the K-threshold counts of slow-resident segments,
	// keyed by segment; dead is the decay pass's scratch list of counters
	// that halve to zero.
	counters  mem.Table[uint32]
	dead      []uint64
	lastDecay uint64

	stats Stats
}

// New installs a PoM manager on the controller.
func New(ctl *hmc.Controller, cfg Config) *PoM {
	p := &PoM{sim: ctl.Sim, cfg: cfg}
	p.Segments = hmc.NewSegments(ctl, "pom", segShift, cfg.SRC(), cfg.RemapTableBytes, p.committed)
	ctl.SetManager(p)
	return p
}

// Name implements hmc.Manager.
func (p *PoM) Name() string { return "PoM" }

// Stats returns a snapshot of the counters.
func (p *PoM) Stats() Stats { return p.stats }

// group returns the swap group (== fast segment index) a segment belongs
// to: there are as many groups as DRAM segments. Fast segments are their
// own group; slow segments direct-map onto one.
func (p *PoM) group(s hmc.Seg) hmc.Seg {
	fast := p.FastUnits()
	if s < fast {
		return s
	}
	return (s - fast) % fast
}

// HandleRequest implements hmc.Manager: SRC lookup on the critical path,
// counter tracking and swap trigger off it.
func (p *PoM) HandleRequest(r *hmc.Request) {
	s := p.Unit(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk {
		p.track(s)
	}
	p.Lookup(r, uint64(p.group(s)))
}

func (p *PoM) maybeDecay() {
	now := p.sim.Now()
	for p.lastDecay+decayInterval <= now {
		p.lastDecay += decayInterval
		p.counters.Each(func(s uint64, c uint32) {
			if c /= 2; c == 0 {
				p.dead = append(p.dead, s)
			} else {
				*p.counters.Ref(s) = c
			}
		})
		for _, s := range p.dead {
			p.counters.Del(s)
		}
		p.dead = p.dead[:0]
		if p.counters.Len() == 0 {
			rem := (now - p.lastDecay) / decayInterval
			p.lastDecay += rem * decayInterval
			break
		}
	}
}

// track counts accesses to segments whose data currently resides in slow
// memory and triggers a fast swap at K. A full counter table evicts its
// coldest counter to admit a new segment.
func (p *PoM) track(s hmc.Seg) {
	p.maybeDecay()
	if p.Loc(s) < p.FastUnits() {
		return // already in fast memory
	}
	c := uint32(1)
	if n := p.counters.Ref(uint64(s)); n != nil {
		*n++
		c = *n
	} else {
		if p.counters.Len() >= p.cfg.CounterTableEntries {
			p.evictColdestCounter()
		}
		p.counters.Put(uint64(s), c)
	}
	if c >= swapThreshold {
		p.trySwap(s)
	}
}

// evictColdestCounter deletes the lowest (count, segment) counter; the
// segment tie-break keeps the victim independent of table order.
func (p *PoM) evictColdestCounter() {
	var victim uint64
	vc := ^uint32(0)
	p.counters.Each(func(s uint64, c uint32) {
		if c < vc || (c == vc && s < victim) {
			victim, vc = s, c
		}
	})
	p.counters.Del(victim)
}

// trySwap performs PoM's fast swap: segment s (slow-resident) exchanges
// with whatever currently sits in its group's fast slot.
func (p *PoM) trySwap(s hmc.Seg) {
	g := p.group(s)
	switch p.Exchange(s, g, uint64(g)) {
	case hmc.SlotBusy:
		p.stats.SwapsBlocked++
	case hmc.EngineFull:
		p.stats.SwapsDeclined++
	}
}

// committed is the exchange core's commit hook: m.Data now sits in fast
// memory.
func (p *PoM) committed(m hmc.Move) {
	p.counters.Del(uint64(m.Data))
	p.stats.Swaps++
}

// MMUHint implements hmc.Manager: PoM has no MMU connection.
func (p *PoM) MMUHint(mmu.Hint) {}

// ResetStats zeroes the PoM counters (e.g. after warm-up), keeping all
// trained and remap state.
func (p *PoM) ResetStats() { p.stats = Stats{} }
