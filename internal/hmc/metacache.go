package hmc

import (
	"fmt"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/obs/attrib"
)

// MetaRegion is a contiguous range of DRAM reserved for a controller
// metadata table (the full PRT, PCT, or a baseline's remap table). The
// architectural contents of such tables live in plain arrays inside the
// managers; MetaRegion only provides the *timing* of reaching the in-memory
// copy: each entry access becomes one line access to the right DRAM address.
type MetaRegion struct {
	Base      mem.Addr
	Bytes     uint64
	EntrySize uint64
}

// EntryAddr returns the DRAM line address holding entry idx.
func (r MetaRegion) EntryAddr(idx uint64) mem.Addr {
	off := (idx * r.EntrySize) % r.Bytes
	return mem.LineOf(r.Base + mem.Addr(off))
}

// MetaCacheConfig sizes an on-controller metadata cache.
type MetaCacheConfig struct {
	Name string
	// Entries and Ways give the geometry; sets = Entries/Ways (not
	// necessarily a power of two — these are custom SRAM arrays). Tags are
	// per entry, as in the paper's 3.5B/10.5B entry formats.
	Entries int
	Ways    int
	// HitLatency is the SRAM access time in CPU cycles (1 memory cycle =
	// 2 CPU cycles for the PRTc/PCTc in Table II).
	HitLatency uint64
	// EntriesPerLine is how many table entries share one 64B DRAM line
	// (18 for 3.5B PRT entries, 6 for 10.5B PCT entries). A miss fetches
	// the whole line and installs every entry it carries, so adjacent keys
	// ride along; capacity and eviction remain per entry. 0 means 1.
	EntriesPerLine int
	// Background marks a cache whose miss fetches ride the background
	// (swap) priority class: structures that are off the request critical
	// path, like the PCTc (Section III-C3: "the HPTs and the PCTc are off
	// the critical path").
	Background bool
}

// Validate reports whether the geometry describes a buildable metadata
// cache. NewMetaCache panics on the same conditions; Validate lets
// sim.Config.Validate surface the diagnosis as an error before anything is
// built.
func (c MetaCacheConfig) Validate() error {
	if err := mem.CheckSets(c.Entries, c.Ways); err != nil {
		return fmt.Errorf("hmc: meta cache %s: %w", c.Name, err)
	}
	if c.EntriesPerLine < 0 {
		return fmt.Errorf("hmc: meta cache %s: %d entries per line is negative", c.Name, c.EntriesPerLine)
	}
	return nil
}

// SRAMRoot returns the divisor the metadata caches' entry counts shrink by
// in a memory system factor times smaller than the paper's: the integer
// square root of factor, and 1 for factor <= 1. A cache's hit rate is set
// by how much of the *active* page population it covers, and active sets
// shrink more slowly than total capacity; scaling the caches linearly
// would leave nano-caches whose miss traffic dominates the memory system,
// a pure simulation artifact.
func SRAMRoot(factor int) int {
	root := 1
	for (root+1)*(root+1) <= factor {
		root++
	}
	return root
}

// MetaCacheStats counts cache activity. WaitCycles accumulates, over all
// Access calls that missed, the cycles between the access and the fill —
// the quantity Figure 13 reports for the PRTc.
type MetaCacheStats struct {
	Hits       uint64
	Misses     uint64
	Prefetches uint64
	Writebacks uint64
	WaitCycles uint64
}

// Add accumulates o into s (sampled-window aggregation).
func (s *MetaCacheStats) Add(o MetaCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Prefetches += o.Prefetches
	s.Writebacks += o.Writebacks
	s.WaitCycles += o.WaitCycles
}

// MetaCache models an on-controller SRAM cache of a DRAM-resident metadata
// table. Keys are entry indices into the backing table. A miss issues one
// DRAM line read (and fills every entry the line carries); a dirty eviction
// issues a DRAM line write. The cached *values* live in the owning manager;
// the MetaCache tracks only presence and timing, which is all the hardware
// structure contributes.
type MetaCache struct {
	sim    *engine.Sim
	cfg    MetaCacheConfig
	region MetaRegion
	issue  IssueFunc

	epl uint64
	// sets holds the resident entries, keyed by entry index.
	sets mem.Sets
	// pending holds the in-flight DRAM line fetches, keyed by line index;
	// later misses to a pending line park on its fetch.
	pending mem.Fetches[struct{}]
	txnPool mem.Pool[metaTxn]
	stats   MetaCacheStats

	// inj (nil when off) forces resident entries to refetch (thrash); a
	// cache takes its controller's injector when Controller.NewMetaCache
	// builds it.
	inj *check.Injector
}

// metaTxn carries one Access across the SRAM probe (and, on a miss, the
// DRAM line fetch): the lookup payload plus the two stage closures pre-bound
// to the record. Pooled per cache, so the PRTc probe every LLC miss pays —
// the hottest metadata path in the controller — allocates nothing in steady
// state.
type metaTxn struct {
	c      *MetaCache
	key    uint64
	dirty  bool
	urgent bool
	start  uint64
	v      *attrib.Vector // blame vector of the demand request this lookup serves (nil when off)
	done   func()

	lookFn func()
	fillFn func()
}

func (c *MetaCache) getTxn() *metaTxn {
	t := c.txnPool.Get()
	if t == nil {
		t = &metaTxn{c: c}
		t.lookFn = func() { t.c.lookStage(t) }
		t.fillFn = func() { t.c.fillStage(t) }
	}
	return t
}

func (c *MetaCache) putTxn(t *metaTxn) {
	t.key, t.dirty, t.urgent, t.start, t.v, t.done = 0, false, false, 0, nil, nil
	c.txnPool.Put(t)
}

// NewMetaCache builds a metadata cache over a DRAM region.
func NewMetaCache(sim *engine.Sim, cfg MetaCacheConfig, region MetaRegion, issue IssueFunc) *MetaCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.EntriesPerLine < 1 {
		cfg.EntriesPerLine = 1
	}
	c := &MetaCache{
		sim:    sim,
		cfg:    cfg,
		region: region,
		issue:  issue,
		epl:    uint64(cfg.EntriesPerLine),
		sets:   mem.NewSets(cfg.Entries, cfg.Ways),
	}
	c.pending.Fill = c.fetched
	return c
}

// Config returns the cache configuration.
func (c *MetaCache) Config() MetaCacheConfig { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *MetaCache) Stats() MetaCacheStats { return c.stats }

// lineKey groups adjacent table entries that share a DRAM line.
func (c *MetaCache) lineKey(key uint64) uint64 { return key / c.epl }

// find locates key: the base of its set and its way (-1 when absent).
func (c *MetaCache) find(key uint64) (base, e int) {
	base = c.sets.Set(key)
	return base, c.sets.Find(base, key)
}

// Present reports whether key is cached (no LRU update, no timing).
func (c *MetaCache) Present(key uint64) bool {
	_, e := c.find(key)
	return e >= 0
}

// Access looks up key, modelling timing: after HitLatency, a hit calls done
// immediately; a miss fetches the entry's line from DRAM first. dirty marks
// the entry modified (it will be written back to DRAM on eviction). The
// cycles a missing access spends waiting are added to WaitCycles. v is the
// demand request's cycle-accounting blame vector, nil when attribution is
// off or the lookup serves no demand request: a hit charges the SRAM probe
// to CompRemap (remap-lookup time on the critical path); a miss charges the
// DRAM table fetch to CompMeta.
func (c *MetaCache) Access(key uint64, dirty bool, v *attrib.Vector, done func()) {
	t := c.getTxn()
	t.key, t.dirty, t.v, t.done = key, dirty, v, done
	c.sim.After(c.cfg.HitLatency, t.lookFn)
}

// lookStage resolves the SRAM probe. Hits release the record before the
// callback; misses park it on the pending line fetch (fillStage releases).
func (c *MetaCache) lookStage(t *metaTxn) {
	if base, e := c.find(t.key); e >= 0 {
		// Thrash injection treats the hit as a miss WITHOUT invalidating the
		// line (dropping a dirty line here would silently lose its
		// writeback): the access takes the full fetch path and fillStage
		// finds the entry already resident.
		if c.inj == nil || !c.inj.ForceMetaMiss() {
			c.stats.Hits++
			c.touch(base, e, t.dirty)
			t.v.Take(attrib.CompRemap, c.sim.Now())
			done := t.done
			c.putTxn(t)
			if done != nil {
				done()
			}
			return
		}
	}
	c.stats.Misses++
	t.start = c.sim.Now()
	if t.urgent {
		c.fetchUrgent(t.key, t.fillFn)
	} else {
		c.fetch(t.key, false, t.fillFn)
	}
}

func (c *MetaCache) fillStage(t *metaTxn) {
	c.stats.WaitCycles += c.sim.Now() - t.start
	if base, e := c.find(t.key); e >= 0 {
		c.touch(base, e, t.dirty)
	}
	// The demand request waited this whole interval on a metadata line
	// fetch — the cost Figure 13 isolates for the PRTc.
	t.v.Take(attrib.CompMeta, c.sim.Now())
	done := t.done
	c.putTxn(t)
	if done != nil {
		done()
	}
}

// Prefetch fetches key into the cache without a waiter — the early PRTc/PCTc
// loads PageSeer starts from MMU hints (Section V-B, third factor).
func (c *MetaCache) Prefetch(key uint64) {
	if c.Present(key) {
		return
	}
	c.stats.Prefetches++
	c.fetch(key, true, nil)
}

// AccessUrgent is Access with a demand-priority miss fetch even on a
// Background cache — for the MMU Driver's hint evaluation, whose entire
// value is lead time over the replayed access (Section III-B).
func (c *MetaCache) AccessUrgent(key uint64, done func()) {
	t := c.getTxn()
	t.key, t.urgent, t.done = key, true, done
	c.sim.After(c.cfg.HitLatency, t.lookFn)
}

func (c *MetaCache) fetchUrgent(key uint64, done func()) {
	c.fetchLine(key, memsim.PrioDemand, done)
}

func (c *MetaCache) fetch(key uint64, prefetch bool, done func()) {
	prio := memsim.PrioDemand
	if prefetch || c.cfg.Background {
		prio = memsim.PrioSwap
	}
	c.fetchLine(key, prio, done)
}

// fetchLine parks done (if any) on the fetch of key's DRAM line, issuing
// that fetch at prio unless one is already in flight.
func (c *MetaCache) fetchLine(key uint64, prio memsim.Priority, done func()) {
	if f, fresh := c.pending.Join(c.lineKey(key), done); fresh {
		c.issue(c.region.EntryAddr(key), false, prio, f.Done)
	}
}

// fetched installs every entry of the fetched DRAM line lk, before the
// accesses parked on its fetch run.
func (c *MetaCache) fetched(lk uint64, _ *struct{}) { c.installLine(lk, true) }

// installLine installs every entry of DRAM line lk that is not yet
// resident. The line's keys are consecutive, so their sets are too: the
// set index steps with the key instead of being recomputed. writeback
// says whether a dirty victim is written back to the DRAM table (the
// detailed path) or dropped (fast-forward, which has no bandwidth model
// to charge it to).
func (c *MetaCache) installLine(lk uint64, writeback bool) {
	key := lk * c.epl
	base := c.sets.Set(key)
	for end := key + c.epl; key < end; key++ {
		c.install(base, key, writeback)
		base = c.sets.Next(base)
	}
}

// install puts key into the set at base over its LRU entry unless it is
// already resident.
func (c *MetaCache) install(base int, key uint64, writeback bool) {
	if c.sets.Find(base, key) >= 0 {
		return
	}
	v := c.sets.Victim(base)
	if writeback && c.sets.Dirty(base, v) {
		// Write the evicted entry back to the DRAM table (change-bit
		// behaviour: only dirty entries go back, Section III-C2).
		c.stats.Writebacks++
		old, _ := c.sets.Key(v)
		c.issue(c.region.EntryAddr(old), true, memsim.PrioSwap, nil)
	}
	c.sets.Fill(base, v, key)
}

// AccessFunctional warms residency for key with no timing, no events, and
// no statistics (the sampled fast-forward path): a hit refreshes LRU and
// dirty state; a miss installs every entry of the backing DRAM line, as
// fetched would, with dirty-victim writebacks dropped silently — there is
// no bandwidth model to charge them to during fast-forward.
func (c *MetaCache) AccessFunctional(key uint64, dirty bool) {
	base, e := c.find(key)
	if e < 0 {
		c.installLine(c.lineKey(key), false)
		if e = c.sets.Find(base, key); e < 0 {
			return
		}
	}
	c.touch(base, e, dirty)
}

// MarkDirty sets the dirty bit of a resident entry (no timing).
func (c *MetaCache) MarkDirty(key uint64) {
	if base, e := c.find(key); e >= 0 {
		c.sets.MarkDirty(base, e)
	}
}

// touch makes entry e of the set at base the most recently used, marking
// it dirty if asked.
func (c *MetaCache) touch(base, e int, dirty bool) {
	c.sets.Touch(base, e)
	if dirty {
		c.sets.MarkDirty(base, e)
	}
}

// Audit reports end-of-run invariant violations: a quiesced metadata cache
// has no pending line fetches and every pooled record back in its pool.
func (c *MetaCache) Audit(a *check.Audit) {
	a.Checkf(c.pending.Len() == 0,
		"meta cache %s: %d line fetch(es) still pending at quiescence", c.cfg.Name, c.pending.Len())
	a.Checkf(c.txnPool.Live() == 0,
		"meta cache %s: %d pooled access record(s) never returned", c.cfg.Name, c.txnPool.Live())
	a.Checkf(c.pending.Live() == 0,
		"meta cache %s: %d pooled fetch record(s) never returned", c.cfg.Name, c.pending.Live())
}

// ResetStats zeroes the cache counters (e.g. after warm-up) without
// touching residency state.
func (c *MetaCache) ResetStats() { c.stats = MetaCacheStats{} }
