// Package core implements PageSeer, the paper's contribution: a hardware
// memory-controller scheme that swaps 4KB pages between NVM and DRAM,
// triggered early by MMU page-walk hints (MMU-Triggered Prefetch Swaps),
// by page-correlation history (Prefetching-Triggered Prefetch Swaps), and
// by hot-page counting (Regular Swaps). It plugs into the hmc framework as
// a Manager.
package core

import "pageseer/internal/hmc"

// Config carries every PageSeer parameter from Table II of the paper.
type Config struct {
	// PCTThreshold is the PCTc prefetch-swap threshold: a page whose
	// recorded per-invocation LLC-miss count reaches this value is worth
	// prefetch-swapping to DRAM (14 in the paper; also the accuracy
	// criterion of Figure 9).
	PCTThreshold uint32
	// HPTThreshold is the NVM Hot Page Table's regular-swap threshold (6).
	HPTThreshold uint32
	// CounterMax saturates all 6-bit counters (63).
	CounterMax uint32
	// HPTDecayInterval halves every HPT counter this often, in CPU cycles
	// (50K cycles at 1GHz = 100K CPU cycles).
	HPTDecayInterval uint64

	// PRTc geometry: 32KB of 3.5-byte entries, 4-way, 1 memory cycle.
	PRTcEntries    int
	PRTcWays       int
	PRTcHitLatency uint64
	// PCTc geometry: 32KB of 10.5-byte entries, 4-way, 1 memory cycle.
	PCTcEntries    int
	PCTcWays       int
	PCTcHitLatency uint64
	// HPTEntries sizes each Hot Page Table (5.3KB of 5.25B entries, fully
	// associative).
	HPTEntries int
	// FilterEntries sizes the Filter table (2.2KB of 17.25B entries).
	FilterEntries int
	// LeaderDebounce is how many misses from a non-leader page the
	// Correlator must see (without the current leader reasserting itself)
	// before it treats them as a new invocation. Out-of-order cores jumble
	// the LLC-miss stream where one page flurry hands over to the next;
	// with a debounce of 1 every straggler miss ends the invocation, so
	// per-invocation counts collapse to a few misses and the PCT never
	// trains. 2 absorbs the jumble while still switching within a couple
	// of misses of a genuine handover. 1 disables the debounce (the raw
	// single-leader semantics the unit tests pin).
	LeaderDebounce uint32
	// PTEServeLatency is the cost of serving an intercepted PTE request
	// from the MMU Driver's cache, in CPU cycles.
	PTEServeLatency uint64

	// PRTBytes and PCTBytes size the DRAM-resident full tables (426KB and
	// 7MB with follower information).
	PRTBytes uint64
	PCTBytes uint64

	// NoCorr disables follower information in PCT entries — the
	// PageSeer-NoCorr ablation of Section V-C.
	NoCorr bool

	// BWOpt enables the Swap Driver's bandwidth heuristic (Section V-B):
	// when the DRAM channels are saturated and more than BWSatFraction of
	// main-memory requests are already served from fast memory, decline
	// incoming swap requests.
	BWOpt         bool
	BWSatFraction float64
	// BWSatUtil is the DRAM data-bus utilization (measured over
	// BWUtilWindow cycles) that counts as saturation.
	BWSatUtil    float64
	BWUtilWindow uint64

	// AccuracyTarget is the number of post-swap DRAM accesses that makes a
	// prefetch swap "accurate" (14, Figure 9).
	AccuracyTarget uint64
}

// DefaultConfig returns the paper's Table II configuration.
func DefaultConfig() Config {
	return Config{
		PCTThreshold:     14,
		HPTThreshold:     6,
		CounterMax:       63,
		HPTDecayInterval: 100_000, // 50K cycles at 1GHz, in 2GHz CPU cycles

		PRTcEntries:     9362, // 32KB / 3.5B
		PRTcWays:        4,
		PRTcHitLatency:  2,    // 1 cycle at 1GHz
		PCTcEntries:     3120, // 32KB / 10.5B
		PCTcWays:        4,
		PCTcHitLatency:  2,
		HPTEntries:      1024, // 5.3KB / 5.25B
		FilterEntries:   128,  // 2.2KB / 17.25B
		LeaderDebounce:  2,
		PTEServeLatency: 4,

		PRTBytes: 426 << 10,
		PCTBytes: 7 << 20,

		// The paper's heuristic gates on "over 95% of requests satisfied by
		// DRAM"; on the synthetic workloads the DRAM channels (scaled with
		// the system) saturate at a lower fast-served share, so the gate
		// engages earlier — the point where extra swaps stop converting
		// into extra fast-memory hits and start costing DRAM queueing
		// (the BATMAN effect).
		BWOpt:         true,
		BWSatFraction: 0.90,
		BWSatUtil:     0.35,
		BWUtilWindow:  50_000,

		AccuracyTarget: 14,
	}
}

// PRTc returns the PRT cache's geometry. PRT entries are 3.5B: 4B apart
// in the table, 18 to a PRTc line.
func (c Config) PRTc() hmc.MetaCacheConfig {
	return hmc.MetaCacheConfig{
		Name: "PRTc", Entries: c.PRTcEntries, Ways: c.PRTcWays,
		HitLatency: c.PRTcHitLatency, EntriesPerLine: 18,
	}
}

// PCTc returns the PCT cache's geometry: 10.5B entries, 6 to a line, its
// misses off the critical path (Section III-C3).
func (c Config) PCTc() hmc.MetaCacheConfig {
	return hmc.MetaCacheConfig{
		Name: "PCTc", Entries: c.PCTcEntries, Ways: c.PCTcWays,
		HitLatency: c.PCTcHitLatency, EntriesPerLine: 6, Background: true,
	}
}

// Scale shrinks the SRAM structures for a scaled-down memory system: the
// on-controller caches by the square root of the memory scale
// (hmc.SRAMRoot), the DRAM tables by the scale itself. factor is the memory
// scale denominator: Scale(8) models a system 1/8 the paper's size.
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	root := hmc.SRAMRoot(factor)
	c.PRTcEntries = max(c.PRTcEntries/root, 1)
	c.PCTcEntries = max(c.PCTcEntries/root, 1)
	// The HPTs and the Filter size with the *active* page population (hot
	// pages per core, concurrently-flurrying pages), not with memory
	// capacity; they do not scale down. A too-small DRAM HPT cannot lock
	// the hot set and the Swap Driver would churn it.
	c.PRTBytes = max(c.PRTBytes/uint64(factor), 1<<12)
	c.PCTBytes = max(c.PCTBytes/uint64(factor), 1<<12)
	return c
}
