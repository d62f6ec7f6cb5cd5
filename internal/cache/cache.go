// Package cache implements the simulator's cache hierarchy: set-associative
// write-back/write-allocate caches with LRU replacement and MSHR merging of
// outstanding misses, chained L1 -> L2 -> shared L3 -> memory controller.
//
// Caches are physically indexed and tagged, so everything below the TLB
// (including the hybrid memory controller's page remapping, which sits
// *below* the LLC) sees OS-visible physical addresses — exactly the
// invariant PageSeer's PCT relies on ("PCTc and Filter use addresses before
// remapping").
package cache

import (
	"fmt"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs/attrib"
)

// Meta carries request provenance down the hierarchy. The memory controller
// needs it to attribute LLC misses to cores/processes and to recognise
// page-walk (PTE) traffic.
type Meta struct {
	Core      int
	PID       int
	IsPTE     bool // request fetches the line holding the final (leaf) PTE
	PageWalk  bool // any page-walk read (all levels), excluded from hot-page tracking
	Writeback bool // dirty eviction, not a demand miss
	// V is the request's cycle-accounting blame vector, nil unless the run
	// has attribution enabled AND this is a tracked demand request. It rides
	// the Meta down the hierarchy so each stage can stamp the interval it
	// owned; writebacks and background traffic carry nil.
	V *attrib.Vector
}

// Backend is anything that can service a line request: the next cache level
// or the memory controller.
type Backend interface {
	Access(line mem.Addr, write bool, meta Meta, done func())
}

// Config describes one cache level.
type Config struct {
	Name          string
	SizeBytes     int
	Ways          int
	LatencyCycles uint64
	// AllowPTE is false for L1: the paper's hierarchy stores page-table
	// lines in L2/L3 only. A PTE access to such a cache is a configuration
	// error, caught at Access time.
	AllowPTE bool
}

// Validate reports whether the geometry describes a buildable cache: a
// positive size that divides evenly into a power-of-two number of sets of
// at most mem.MaxWays ways.
// New panics on the same conditions (misconfigured construction inside the
// simulator is a bug); Validate lets sim.Config.Validate surface the
// diagnosis as an error before anything is built.
func (c Config) Validate() error {
	nLines := c.SizeBytes / mem.LineSize
	if err := mem.CheckSets(nLines, c.Ways); err != nil {
		return fmt.Errorf("cache %s: %w", c.Name, err)
	}
	if nLines%c.Ways != 0 {
		return fmt.Errorf("cache %s: size %d not divisible into %d ways", c.Name, c.SizeBytes, c.Ways)
	}
	nSets := nLines / c.Ways
	if nSets&(nSets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets is not a power of two", c.Name, nSets)
	}
	return nil
}

// L1Config, L2Config, L3Config return the paper's Table I cache parameters.
func L1Config() Config {
	return Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 2}
}

// L2Config returns the Table I private L2: 256KB, 8-way, 8 cycles.
func L2Config() Config {
	return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LatencyCycles: 8, AllowPTE: true}
}

// L3Config returns the Table I shared L3: 8MB, 16-way, 32 cycles.
func L3Config() Config {
	return Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, LatencyCycles: 32, AllowPTE: true}
}

// miss is an outstanding miss's payload in the cache's MSHR file.
type miss struct {
	meta  Meta
	write bool // any waiter is a write: line installs dirty
	// vwaiters holds the blame vectors of requests that merged into this
	// outstanding miss (NOT the creator, whose vector rides fetchMeta down to
	// the next level). Mergers spend the whole wait in this MSHR, so the fill
	// charges their interval to CompMSHR.
	vwaiters []*attrib.Vector
}

// cacheTxn carries one access across this level's tag-lookup latency: the
// request payload plus a continuation closure pre-bound to the record.
// Pooled like mshr, it replaces the per-access closure the Access ->
// afterTagLookup hop used to allocate.
type cacheTxn struct {
	c     *Cache
	line  mem.Addr
	write bool
	meta  Meta
	done  func()
	fn    func()
}

// Stats holds per-cache counters.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	MSHRMerges uint64
	Writebacks uint64
	PTEAccess  uint64
	PTEMiss    uint64
}

// Add accumulates o into s (e.g. summing private caches across cores).
// Keep it exhaustive: the reflection test in internal/sim pins that every
// numeric field survives aggregation.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.MSHRMerges += o.MSHRMerges
	s.Writebacks += o.Writebacks
	s.PTEAccess += o.PTEAccess
	s.PTEMiss += o.PTEMiss
}

// Cache is one level of the hierarchy.
type Cache struct {
	sim  *engine.Sim
	cfg  Config
	next Backend
	comp attrib.Component // blame component this level's lookup latency is charged to

	// tags holds the resident lines, keyed by line number.
	tags mem.Sets
	// mshrs holds the outstanding misses, keyed by line number: the MSHR
	// file, as unbounded as the simulator's stand-in for its CAM.
	mshrs mem.Fetches[miss]
	stats Stats

	// nextFunc caches the next-level FunctionalBackend assertion for the
	// sampled fast-forward path; nil until first functional use.
	nextFunc FunctionalBackend

	txnPool mem.Pool[cacheTxn]
}

// New builds a cache over the given backend, scheduling its lookups and
// fills on sim.
func New(sim *engine.Sim, cfg Config, next Backend) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		sim:  sim,
		cfg:  cfg,
		next: next,
		comp: blameFor(cfg.Name),
		tags: mem.NewSets(cfg.SizeBytes/mem.LineSize, cfg.Ways),
	}
	c.mshrs.Fill = c.fill
	return c
}

// blameFor maps a level name to the cycle-accounting component its tag
// latency is charged to. Unknown names (tests with ad-hoc geometries) charge
// the LLC component rather than silently dropping cycles.
func blameFor(name string) attrib.Component {
	switch name {
	case "L1":
		return attrib.CompL1
	case "L2":
		return attrib.CompL2
	default:
		return attrib.CompL3
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// dirtyVictim returns the address of the line way v of the set at base
// holds when that line is dirty (a way never filled is clean), so
// installing over it must write it back; ok is false otherwise.
func (c *Cache) dirtyVictim(base, v int) (wb mem.Addr, ok bool) {
	if !c.tags.Dirty(base, v) {
		return 0, false
	}
	n, _ := c.tags.Key(v)
	return mem.Addr(n << mem.LineShift), true
}

// touch makes way w of the set at base the most recently used, marking it
// dirty on a write.
func (c *Cache) touch(base, w int, write bool) {
	c.tags.Touch(base, w)
	if write {
		c.tags.MarkDirty(base, w)
	}
}

func (c *Cache) getTxn() *cacheTxn {
	t := c.txnPool.Get()
	if t == nil {
		t = &cacheTxn{c: c}
		t.fn = func() { t.c.afterTagLookup(t) }
	}
	return t
}

func (c *Cache) putTxn(t *cacheTxn) {
	t.line, t.write, t.meta, t.done = 0, false, Meta{}, nil
	c.txnPool.Put(t)
}

// Access requests a line. done fires when the data is available at this
// level (after this level's latency on a hit, or after the fill on a miss).
func (c *Cache) Access(addr mem.Addr, write bool, meta Meta, done func()) {
	l := mem.LineOf(addr)
	if meta.IsPTE && !c.cfg.AllowPTE {
		panic(fmt.Sprintf("cache %s: PTE request reached a level that does not cache PTEs", c.cfg.Name))
	}
	c.stats.Accesses++
	if meta.IsPTE {
		c.stats.PTEAccess++
	}
	t := c.getTxn()
	t.line, t.write, t.meta, t.done = l, write, meta, done
	c.sim.After(c.cfg.LatencyCycles, t.fn)
}

func (c *Cache) afterTagLookup(t *cacheTxn) {
	l, write, meta, done := t.line, t.write, t.meta, t.done
	c.putTxn(t)
	// The tag lookup just completed: this level owned the interval since the
	// previous stamp, hit or miss alike (a miss still paid the lookup before
	// the fetch below was issued).
	meta.V.Take(c.comp, c.sim.Now())
	base := c.tags.Set(mem.LineNum(l))
	if w := c.tags.Find(base, mem.LineNum(l)); w >= 0 {
		c.stats.Hits++
		c.touch(base, w, write)
		if done != nil {
			done()
		}
		return
	}
	c.stats.Misses++
	if meta.IsPTE {
		c.stats.PTEMiss++
	}
	m, fresh := c.mshrs.Join(mem.LineNum(l), done)
	if !fresh {
		c.stats.MSHRMerges++
		m.Data.write = m.Data.write || write
		if meta.V != nil {
			m.Data.vwaiters = append(m.Data.vwaiters, meta.V)
		}
		return
	}
	m.Data.meta, m.Data.write = meta, write
	// Fetch the line from below. The fill installs it and releases waiters.
	fetchMeta := meta
	fetchMeta.Writeback = false
	c.next.Access(l, false, fetchMeta, m.Done)
}

// fill installs line n of a completed miss, before its waiters run, and
// resets the payload for the record's next miss.
func (c *Cache) fill(n uint64, m *miss) {
	c.install(mem.Addr(n<<mem.LineShift), m.write, m.meta)
	// Mergers spent their whole wait parked in this MSHR while the creator's
	// vector accumulated the downstream story; charge them the wait here.
	if len(m.vwaiters) > 0 {
		now := c.sim.Now()
		for i, v := range m.vwaiters {
			v.Take(attrib.CompMSHR, now)
			m.vwaiters[i] = nil
		}
		m.vwaiters = m.vwaiters[:0]
	}
	m.meta, m.write = Meta{}, false
}

func (c *Cache) install(l mem.Addr, dirty bool, meta Meta) {
	base := c.tags.Set(mem.LineNum(l))
	v := c.tags.Victim(base)
	if victimAddr, ok := c.dirtyVictim(base, v); ok {
		c.stats.Writebacks++
		wb := Meta{Core: meta.Core, PID: meta.PID, Writeback: true}
		c.next.Access(victimAddr, true, wb, nil)
	}
	c.fillWay(base, v, l, dirty)
}

// fillWay installs line l into way v of the set at base.
func (c *Cache) fillWay(base, v int, l mem.Addr, dirty bool) {
	c.tags.Fill(base, v, mem.LineNum(l))
	if dirty {
		c.tags.MarkDirty(base, v)
	}
}

// FunctionalBackend is the no-event counterpart of Backend: service a line
// request immediately, mutating architectural state (tags, LRU, dirty bits,
// remap tables, hot-page counters) but scheduling no events, advancing no
// clocks, and bumping no statistics. Sampled runs use it to keep long-lived
// state warm across fast-forward gaps; see sim.Config.Sample.
type FunctionalBackend interface {
	AccessFunctional(line mem.Addr, write bool, meta Meta)
}

// AccessFunctional services one access synchronously: hit updates LRU and
// dirty state, miss recurses into the next level functionally and installs
// the line (evicting — and functionally writing back — a victim if needed).
// Stats-silent: fast-forward traffic must not pollute window measurements.
func (c *Cache) AccessFunctional(addr mem.Addr, write bool, meta Meta) {
	l := mem.LineOf(addr)
	if meta.IsPTE && !c.cfg.AllowPTE {
		panic(fmt.Sprintf("cache %s: PTE request reached a level that does not cache PTEs", c.cfg.Name))
	}
	base := c.tags.Set(mem.LineNum(l))
	if w := c.tags.Find(base, mem.LineNum(l)); w >= 0 {
		c.touch(base, w, write)
		return
	}
	fetchMeta := meta
	fetchMeta.Writeback = false
	fetchMeta.V = nil
	c.functionalNext().AccessFunctional(l, false, fetchMeta)
	c.installFunctional(l, write, meta)
}

// functionalNext asserts the backend's functional interface, caching the
// result so the fast-forward loop pays the assertion once per cache.
func (c *Cache) functionalNext() FunctionalBackend {
	if c.nextFunc == nil {
		fb, ok := c.next.(FunctionalBackend)
		if !ok {
			panic(fmt.Sprintf("cache %s: backend %T does not support functional access", c.cfg.Name, c.next))
		}
		c.nextFunc = fb
	}
	return c.nextFunc
}

// installFunctional mirrors install minus statistics and event scheduling:
// the same victim choice, with dirty victims written back functionally so
// lower-level dirty state matches what a detailed run would have produced.
func (c *Cache) installFunctional(l mem.Addr, dirty bool, meta Meta) {
	base := c.tags.Set(mem.LineNum(l))
	v := c.tags.Victim(base)
	if victimAddr, ok := c.dirtyVictim(base, v); ok {
		wb := Meta{Core: meta.Core, PID: meta.PID, Writeback: true}
		c.functionalNext().AccessFunctional(victimAddr, true, wb)
	}
	c.fillWay(base, v, l, dirty)
}

// Contains reports whether the line is currently resident (for tests).
func (c *Cache) Contains(addr mem.Addr) bool {
	n := mem.LineNum(addr)
	return c.tags.Find(c.tags.Set(n), n) >= 0
}

// OutstandingMisses returns the number of live MSHRs (for tests).
func (c *Cache) OutstandingMisses() int { return c.mshrs.Len() }

// Audit reports end-of-run invariant violations: a quiesced cache has no
// outstanding MSHRs and every pooled record back in its pool.
func (c *Cache) Audit(a *check.Audit) {
	a.Checkf(c.mshrs.Len() == 0,
		"cache %s: %d MSHR(s) still outstanding at quiescence (leaked miss)", c.cfg.Name, c.mshrs.Len())
	a.Checkf(c.mshrs.Live() == 0,
		"cache %s: %d pooled MSHR record(s) never returned", c.cfg.Name, c.mshrs.Live())
	a.Checkf(c.txnPool.Live() == 0,
		"cache %s: %d pooled access record(s) never returned", c.cfg.Name, c.txnPool.Live())
}

// ResetStats zeroes all counters (e.g. after warm-up) without touching
// cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }
