package mempod

import (
	"fmt"
	"sort"

	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/obs"
)

// SegmentBytes is MemPod's migration granularity.
const SegmentBytes = 2048

const segShift = 11

// Config holds MemPod's parameters (Section IV-B of the PageSeer paper).
type Config struct {
	// Pods is the number of independent pods the memory is divided into.
	Pods int
	// MEACounters per pod (64).
	MEACounters int
	// IntervalCycles between migration decisions (50us = 100K CPU cycles
	// at 2GHz).
	IntervalCycles uint64
	// MinCount filters MEA survivors before migration.
	MinCount uint32
	// RemapEntries and RemapWays give the remap cache geometry (32KB).
	RemapEntries int
	RemapWays    int
	RemapLatency uint64
	// RemapTableBytes sizes the DRAM-backed remap table.
	RemapTableBytes uint64
	// MaxMigrationsPerInterval bounds one interval's burst per pod.
	MaxMigrationsPerInterval int
}

// DefaultConfig returns the Section IV-B configuration.
func DefaultConfig() Config {
	return Config{
		Pods:                     4,
		MEACounters:              64,
		IntervalCycles:           100_000,
		MinCount:                 2,
		RemapEntries:             8192,
		RemapWays:                4,
		RemapLatency:             2,
		RemapTableBytes:          512 << 10,
		MaxMigrationsPerInterval: 32,
	}
}

// Scale shrinks the remap cache with the memory system.
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	root := 1
	for (root+1)*(root+1) <= factor {
		root++
	}
	factor = root
	if s := c.RemapEntries / factor; s > 0 {
		c.RemapEntries = s
	} else {
		c.RemapEntries = 1
	}
	if s := c.RemapTableBytes / uint64(factor); s >= 4096 {
		c.RemapTableBytes = s
	} else {
		c.RemapTableBytes = 4096
	}
	return c
}

// Stats counts MemPod activity.
type Stats struct {
	Migrations        uint64
	MigrationsDropped uint64 // engine at capacity during a burst
	Intervals         uint64
}

type seg uint64

type pod struct {
	mea *MEA
	// DRAM slot allocation cursor for victim choice.
	nextVictim seg
}

type job struct {
	segs    []seg
	waiters []func()
}

// MemPod is the baseline manager.
type MemPod struct {
	sim *engine.Sim
	ctl *hmc.Controller
	cfg Config

	remapCache *hmc.MetaCache
	region     hmc.MetaRegion

	fastSegs  seg
	totalSegs seg
	pods      []pod
	lastTick  uint64

	remap    *hmc.Remap      // the segment permutation the remap table holds
	inflight mem.Table[*job] // keyed by the slots a running migration touches

	// pending holds interval migrations waiting for a free swap buffer;
	// hotness is re-checked against the sketch state at start time.
	pending []pendingMig

	stats Stats
}

type pendingMig struct {
	pod int
	s   seg
	hot map[seg]bool
}

// New installs a MemPod manager on the controller.
func New(ctl *hmc.Controller, cfg Config) *MemPod {
	m := &MemPod{
		sim:       ctl.Sim,
		ctl:       ctl,
		cfg:       cfg,
		fastSegs:  seg(ctl.Layout.DRAMBytes / SegmentBytes),
		totalSegs: seg(ctl.Layout.Total() / SegmentBytes),
		remap:     ctl.NewRemap(segShift),
	}
	m.region = ctl.AllocMetaRegion(cfg.RemapTableBytes, 4)
	m.remapCache = hmc.NewMetaCache(ctl.Sim, hmc.MetaCacheConfig{
		Name: "MemPodRemap", Entries: cfg.RemapEntries, Ways: cfg.RemapWays,
		HitLatency: cfg.RemapLatency, EntriesPerLine: 16, // 4B segment entries
	}, m.region, ctl.IssueLine)
	m.pods = make([]pod, cfg.Pods)
	for i := range m.pods {
		m.pods[i] = pod{mea: NewMEA(cfg.MEACounters)}
	}
	ctl.SetManager(m)
	return m
}

// Name implements hmc.Manager.
func (m *MemPod) Name() string { return "MemPod" }

// Stats returns a snapshot of the counters.
func (m *MemPod) Stats() Stats { return m.stats }

// RemapCache exposes the remap cache for stats.
func (m *MemPod) RemapCache() *hmc.MetaCache { return m.remapCache }

func segOf(a mem.Addr) seg   { return seg(a >> segShift) }
func (s seg) base() mem.Addr { return mem.Addr(s) << segShift }

// podOf statically interleaves segments across pods; a pod owns matching
// slices of DRAM and NVM so migrations stay pod-local.
func (m *MemPod) podOf(s seg) int { return int(s) % m.cfg.Pods }

func (m *MemPod) locate(s seg) seg { return seg(m.remap.Loc(uint64(s))) }

func (m *MemPod) occupantOf(slot seg) seg { return seg(m.remap.Owner(uint64(slot))) }

// TranslateLine implements hmc.Manager.
func (m *MemPod) TranslateLine(addr mem.Addr) mem.Addr {
	s := segOf(addr)
	off := addr - s.base()
	return m.locate(s).base() + off
}

// CheckIntegrity implements hmc.Manager.
func (m *MemPod) CheckIntegrity() error {
	if err := m.ctl.Oracle.VerifyAll(m.remap.Loc); err != nil {
		return fmt.Errorf("mempod: %w", err)
	}
	return nil
}

// HandleRequest implements hmc.Manager. The remap cache is on the critical
// path; the paper grants the inverted table zero latency, so only the
// forward lookup is timed.
func (m *MemPod) HandleRequest(r *hmc.Request) {
	s := segOf(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk {
		m.observe(s)
	}
	m.remapCache.AccessV(uint64(s), false, r.Meta.V, r.RouteFn())
}

// observe feeds the MEA sketch and fires interval migrations lazily: the
// first access past an interval boundary runs that boundary's migration
// pass (with no traffic there is nothing to migrate, so laziness is exact).
func (m *MemPod) observe(s seg) {
	now := m.sim.Now()
	if m.lastTick == 0 {
		m.lastTick = now
	}
	for m.lastTick+m.cfg.IntervalCycles <= now {
		m.lastTick += m.cfg.IntervalCycles
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
		hot := p.mea.Frequent(m.cfg.MinCount)
		sort.Slice(hot, func(a, b int) bool { return hot[a] < hot[b] }) // determinism
		hotSet := make(map[seg]bool, len(hot))
		for _, h := range hot {
			hotSet[seg(h)] = true
		}
		migrated := 0
		for _, h := range hot {
			if migrated >= m.cfg.MaxMigrationsPerInterval {
				break
			}
			s := seg(h)
			if m.locate(s) < m.fastSegs {
				continue // already in DRAM
			}
			if !m.ctl.Engine.CanStart() {
				// Queue the rest of the interval's burst; they start as
				// buffers free (the burstiness Section V-A describes).
				m.pending = append(m.pending, pendingMig{pod: pi, s: s, hot: hotSet})
				migrated++
				continue
			}
			if m.migrate(pi, s, hotSet) {
				migrated++
			}
		}
		p.mea.Reset()
	}
}

// migrate swaps hot segment s into a DRAM slot of its pod whose current
// data is not hot. Any-to-any flexibility within the pod.
func (m *MemPod) migrate(pi int, s seg, hotSet map[seg]bool) bool {
	slot, ok := m.pickVictim(pi, hotSet)
	if !ok {
		return false
	}
	srcSlot := m.locate(s)
	if m.inflight.Has(uint64(slot)) || m.inflight.Has(uint64(srcSlot)) {
		return false
	}
	displaced := m.occupantOf(slot)
	if m.frozen(s) || m.frozen(displaced) {
		return false
	}
	op := &hmc.Op{
		Swap: obs.Swap{
			Addr: uint64(s.base()), Victim: uint64(displaced.base()), HasVictim: true,
			Trigger: obs.TrigRegular, Request: m.sim.Now(),
		},
		Stages: []hmc.Stage{{
			{Src: srcSlot.base(), Dst: slot.base(), Bytes: SegmentBytes},
			{Src: slot.base(), Dst: srcSlot.base(), Bytes: SegmentBytes},
		}},
	}
	j := &job{segs: []seg{slot, srcSlot}}
	op.OnComplete = func() {
		m.remap.Place(uint64(s), uint64(slot))
		m.ctl.Oracle.Exchange(uint64(slot), uint64(srcSlot))
		m.ctl.IssueLine(m.region.EntryAddr(uint64(slot)), true, hmc.PrioSwap, nil)
		m.remapCache.Prefetch(uint64(s))
		m.stats.Migrations++
		for _, sg := range j.segs {
			m.inflight.Del(uint64(sg))
		}
		for _, w := range j.waiters {
			w()
		}
		m.drainPending()
	}
	if !m.ctl.Engine.Start(op) {
		m.stats.MigrationsDropped++
		return false
	}
	m.inflight.Put(uint64(slot), j)
	m.inflight.Put(uint64(srcSlot), j)
	return true
}

// drainPending starts queued interval migrations as swap buffers free.
func (m *MemPod) drainPending() {
	for len(m.pending) > 0 && m.ctl.Engine.CanStart() {
		e := m.pending[0]
		m.pending = m.pending[1:]
		if m.locate(e.s) < m.fastSegs {
			continue
		}
		if !m.migrate(e.pod, e.s, e.hot) {
			m.stats.MigrationsDropped++
		}
	}
}

// pickVictim scans the pod's DRAM slots round-robin for one whose resident
// data is not currently hot, not in flight, and not frozen.
func (m *MemPod) pickVictim(pi int, hotSet map[seg]bool) (seg, bool) {
	p := &m.pods[pi]
	n := m.fastSegs / seg(m.cfg.Pods)
	if n == 0 {
		return 0, false
	}
	start := p.nextVictim
	for i := seg(0); i < n; i++ {
		idx := (start + i) % n
		slot := idx*seg(m.cfg.Pods) + seg(pi) // pod-interleaved DRAM slot
		if slot >= m.fastSegs {
			continue
		}
		data := m.occupantOf(slot)
		if hotSet[data] || m.inflight.Has(uint64(slot)) || m.frozen(data) {
			continue
		}
		if m.pinnedSlot(slot) {
			continue
		}
		p.nextVictim = idx + 1
		return slot, true
	}
	return 0, false
}

// pinnedSlot protects the controller's own remap-table region and page
// tables from being migrated.
func (m *MemPod) pinnedSlot(slot seg) bool {
	a := slot.base()
	if a >= m.region.Base && uint64(a-m.region.Base) < m.region.Bytes {
		return true
	}
	return m.ctl.OS.IsPageTable(mem.PageOf(a))
}

// frozen reports whether the page overlapping segment s is DMA-frozen.
func (m *MemPod) frozen(s seg) bool {
	return m.ctl.FrozenByDMA(mem.PageOf(s.base()))
}

// MMUHint implements hmc.Manager: MemPod has no MMU connection.
func (m *MemPod) MMUHint(mmu.Hint) {}

// FreezePage implements hmc.Manager.
func (m *MemPod) FreezePage(page mem.PPN, done func()) {
	base := segOf(page.Addr())
	waitFor := map[*job]struct{}{}
	for i := 0; i < mem.PageSize/SegmentBytes; i++ {
		s := base + seg(i)
		if j, ok := m.inflight.Get(uint64(m.locate(s))); ok {
			waitFor[j] = struct{}{}
		}
		if j, ok := m.inflight.Get(uint64(s)); ok {
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
func (m *MemPod) UnfreezePage(mem.PPN) {}

// ResetStats zeroes the MemPod counters (e.g. after warm-up), keeping all
// sketch and remap state.
func (m *MemPod) ResetStats() {
	m.stats = Stats{}
	m.remapCache.ResetStats()
}
