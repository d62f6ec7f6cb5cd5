package mempod

import (
	"math"
	"slices"

	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mmu"
)

// MemPod's fixed parameters (Section IV-B of the PageSeer paper, except
// where a line says modelling choice).
const (
	// pods is the number of independent pods the memory is divided into
	// (modelling choice: Table I's DRAM has four channels).
	pods = 4
	// meaCounters is the MEA sketch size per pod (64).
	meaCounters = 64
	// intervalCycles separates migration decisions: 50us = 100K CPU cycles
	// at 2GHz.
	intervalCycles = 100_000
	// minCount filters MEA survivors before migration (modelling choice).
	minCount = 2
	// remapWays and remapLatency give the remap cache's associativity and
	// hit latency in CPU cycles, those of PageSeer's PRTc (Table II).
	remapWays    = 4
	remapLatency = 2
	// maxMigrations bounds one interval's burst per pod (modelling choice).
	maxMigrations = 32
)

// admission holds the rest of an interval's burst until swap buffers free:
// one FIFO without bound (modelling choice; Section V-A's burstiness).
var admission = hmc.AdmitPolicy{Depth: math.MaxInt, Classes: []string{"regular"}}

// Config holds MemPod's parameters that vary with the memory scale.
type Config struct {
	// RemapEntries sizes the remap cache (32KB).
	RemapEntries int
	// RemapTableBytes sizes the DRAM-backed remap table.
	RemapTableBytes uint64
}

// DefaultConfig returns the Section IV-B configuration.
func DefaultConfig() Config {
	return Config{
		RemapEntries:    8192,
		RemapTableBytes: 512 << 10,
	}
}

// segShift is log2 of MemPod's swap unit, the 2KB segment.
const segShift = 11

// RemapCache returns the remap cache's geometry: one 4B entry per segment, 16
// to a line.
func (c Config) RemapCache() hmc.MetaCacheConfig {
	return hmc.MetaCacheConfig{
		Name: "MemPodRemap", Entries: c.RemapEntries, Ways: remapWays, HitLatency: remapLatency,
		EntriesPerLine: 16,
	}
}

// Scale shrinks the remap cache with the memory system, by the same square
// root as PageSeer's caches (hmc.SRAMRoot).
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	root := hmc.SRAMRoot(factor)
	c.RemapEntries = max(c.RemapEntries/root, 1)
	c.RemapTableBytes = max(c.RemapTableBytes/uint64(root), 4096)
	return c
}

// Stats counts MemPod activity.
type Stats struct {
	Migrations uint64
	Intervals  uint64
}

type pod struct {
	mea *MEA
	// DRAM slot allocation cursor for victim choice.
	nextVictim hmc.Seg
}

// MemPod is the baseline manager: MEA pods, intervals and a victim scan
// over the shared exchange core.
type MemPod struct {
	*hmc.Segments

	sim *engine.Sim
	ctl *hmc.Controller

	pods     []pod
	lastTick uint64

	stats Stats
}

// hotSet is one pod's MEA survivors for one interval, sorted. A queued
// migration outlives its interval and keeps the set it was queued under.
type hotSet struct {
	segs []uint64
}

func (h *hotSet) has(s hmc.Seg) bool {
	_, ok := slices.BinarySearch(h.segs, uint64(s))
	return ok
}

// New installs a MemPod manager on the controller.
func New(ctl *hmc.Controller, cfg Config) *MemPod {
	m := &MemPod{sim: ctl.Sim, ctl: ctl}
	m.Segments = hmc.NewSegments(ctl, "mempod", segShift, cfg.RemapCache(), cfg.RemapTableBytes, m.committed)
	hmc.NewAdmission(m.Segments, admission, m.migrate, nil, nil)
	m.pods = make([]pod, pods)
	for i := range m.pods {
		m.pods[i] = pod{mea: NewMEA(meaCounters)}
	}
	ctl.SetManager(m)
	return m
}

// Name implements hmc.Manager.
func (m *MemPod) Name() string { return "MemPod" }

// Stats returns a snapshot of the counters.
func (m *MemPod) Stats() Stats { return m.stats }

// podOf statically interleaves segments across pods; a pod owns matching
// slices of DRAM and NVM so migrations stay pod-local.
func (m *MemPod) podOf(s hmc.Seg) int { return int(s) % pods }

// HandleRequest implements hmc.Manager. The remap cache is on the critical
// path; the paper grants the inverted table zero latency, so only the
// forward lookup is timed.
func (m *MemPod) HandleRequest(r *hmc.Request) {
	s := m.Unit(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk {
		m.observe(s)
	}
	m.Lookup(r, uint64(s))
}

// observe feeds the MEA sketch and fires interval migrations lazily: the
// first access past an interval boundary runs that boundary's migration
// pass (with no traffic there is nothing to migrate, so laziness is exact).
func (m *MemPod) observe(s hmc.Seg) {
	now := m.sim.Now()
	if m.lastTick == 0 {
		m.lastTick = now
	}
	for m.lastTick+intervalCycles <= now {
		m.lastTick += intervalCycles
		m.interval()
	}
	m.pods[m.podOf(s)].mea.Observe(uint64(s))
}

// interval ends one decision epoch: every pod migrates its MEA survivors
// that currently reside in NVM into DRAM, all at once (the swap-burst
// behaviour Section V-A describes), then resets its sketch.
func (m *MemPod) interval() {
	m.stats.Intervals++
	for pi := range m.pods {
		p := &m.pods[pi]
		hot := &hotSet{segs: p.mea.Frequent(nil, minCount)}
		slices.Sort(hot.segs) // determinism
		migrated := 0
		for _, h := range hot.segs {
			if migrated >= maxMigrations {
				break
			}
			s := hmc.Seg(h)
			if m.Loc(s) < m.FastUnits() {
				continue // already in DRAM
			}
			if out := m.Submit(hmc.Ask{Unit: s, Arg: hot}); out == hmc.Exchanged || out == hmc.Queued {
				migrated++
			}
		}
		p.mea.Reset()
	}
}

// migrate, the admission stage's start, swaps hot segment q.Unit into a
// DRAM slot of its pod whose data is not in q.Arg, the hot set of the
// interval that asked. Any-to-any flexibility within the pod.
func (m *MemPod) migrate(q hmc.Ask) int {
	if m.Loc(q.Unit) < m.FastUnits() {
		return hmc.NoMove // arrived while the request waited
	}
	slot, ok := m.pickVictim(m.podOf(q.Unit), q.Arg.(*hotSet))
	if !ok {
		return hmc.NoMove
	}
	return m.Exchange(q.Unit, slot, uint64(q.Unit))
}

// committed is the exchange core's commit hook.
func (m *MemPod) committed(hmc.Move) { m.stats.Migrations++ }

// pickVictim scans the pod's DRAM slots round-robin for one whose resident
// data is not currently hot, and which is neither in flight nor pinned.
func (m *MemPod) pickVictim(pi int, hot *hotSet) (hmc.Seg, bool) {
	p := &m.pods[pi]
	fast := m.FastUnits()
	n := fast / pods
	if n == 0 {
		return 0, false
	}
	start := p.nextVictim
	for i := hmc.Seg(0); i < n; i++ {
		idx := (start + i) % n
		slot := idx*pods + hmc.Seg(pi) // pod-interleaved DRAM slot
		if slot >= fast {
			continue
		}
		if hot.has(m.Owner(slot)) || m.Busy(slot) || m.Pinned(slot) {
			continue
		}
		p.nextVictim = idx + 1
		return slot, true
	}
	return 0, false
}

// MMUHint implements hmc.Manager: MemPod has no MMU connection.
func (m *MemPod) MMUHint(mmu.Hint) {}

// ResetStats zeroes the MemPod counters (e.g. after warm-up), keeping all
// sketch and remap state.
func (m *MemPod) ResetStats() { m.stats = Stats{} }
