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
	"math/bits"

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
	if c.SizeBytes <= 0 {
		return fmt.Errorf("cache %s: size %d bytes is not positive", c.Name, c.SizeBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: %d ways is not positive", c.Name, c.Ways)
	}
	if c.Ways > mem.MaxWays {
		return fmt.Errorf("cache %s: %d ways exceeds the %d an LRU order word ranks", c.Name, c.Ways, mem.MaxWays)
	}
	nLines := c.SizeBytes / mem.LineSize
	if nLines%c.Ways != 0 {
		return fmt.Errorf("cache %s: size %d not divisible into %d ways", c.Name, c.SizeBytes, c.Ways)
	}
	nSets := nLines / c.Ways
	if nSets <= 0 || nSets&(nSets-1) != 0 {
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

// mshr tracks one outstanding miss. Records are pooled per cache with a
// pre-bound fill closure, so a miss costs no allocation once the pool (and
// each record's waiters array) has warmed to the cache's steady-state miss
// concurrency.
type mshr struct {
	c       *Cache
	line    mem.Addr
	meta    Meta
	write   bool // any waiter is a write: line installs dirty
	waiters []func()
	// vwaiters holds the blame vectors of requests that merged into this
	// outstanding miss (NOT the creator, whose vector rides fetchMeta down to
	// the next level). Mergers spend the whole wait in this MSHR, so the fill
	// charges their interval to CompMSHR.
	vwaiters []*attrib.Vector
	fillFn   func()
	next     *mshr
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
	next  *cacheTxn
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

	// store is the tag store, one contiguous block of ways+2 words per
	// set: the set's tag words, its LRU order word, then its dirty mask
	// (bit i for way i). A tag word holds tag+1, so 0 marks an invalid way
	// and a lookup compares one word per way. A way is named by the store
	// index of its tag word.
	store   []uint64
	ways    int
	nSets   uint64
	setBits uint // log2(nSets); Validate guarantees nSets is a power of two
	// mshrs finds the outstanding miss for a line, keyed by line number:
	// the simulator's stand-in for the MSHR file's CAM, as unbounded as
	// the file it models.
	mshrs mem.Table[*mshr]
	stats Stats

	// nextFunc caches the next-level FunctionalBackend assertion for the
	// sampled fast-forward path; nil until first functional use.
	nextFunc FunctionalBackend

	freeTxn  *cacheTxn
	freeMSHR *mshr
	// liveTxn/liveMSHR count pooled records currently checked out. Plain
	// integer bumps, so the leak audit costs the demand path nothing.
	liveTxn  int
	liveMSHR int
}

// New builds a cache over the given backend, scheduling its lookups and
// fills on sim.
func New(sim *engine.Sim, cfg Config, next Backend) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / mem.LineSize / cfg.Ways
	c := &Cache{
		sim:     sim,
		cfg:     cfg,
		next:    next,
		comp:    blameFor(cfg.Name),
		store:   make([]uint64, nSets*(cfg.Ways+2)),
		ways:    cfg.Ways,
		nSets:   uint64(nSets),
		setBits: uint(bits.TrailingZeros64(uint64(nSets))),
	}
	order := uint64(mem.NewLRU(cfg.Ways))
	for base := 0; base < len(c.store); base += cfg.Ways + 2 {
		c.store[base+cfg.Ways] = order
	}
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

// index splits a line address into the store index of its set's first
// tag word and the stored tag (tag+1, never 0).
func (c *Cache) index(l mem.Addr) (base int, want uint64) {
	n := uint64(l) >> mem.LineShift
	return int(n&(c.nSets-1)) * (c.ways + 2), n>>c.setBits + 1
}

// find returns the way holding want in the set at base, or -1.
func (c *Cache) find(base int, want uint64) int {
	for i, t := range c.store[base : base+c.ways] {
		if t == want {
			return base + i
		}
	}
	return -1
}

func (c *Cache) lookup(l mem.Addr) int {
	return c.find(c.index(l))
}

// victim picks the way an install into the set at base replaces: the
// least recently used one, which is the first invalid way while the set
// is not yet full (see mem.NewLRU).
func (c *Cache) victim(base int) int {
	return base + mem.LRU(c.store[base+c.ways]).Victim()
}

// dirtyVictim returns the address of the line way v of the set at base
// holds when that line is dirty (a way never filled is clean), so
// installing line l over it must write it back; ok is false otherwise.
func (c *Cache) dirtyVictim(l mem.Addr, base, v int) (wb mem.Addr, ok bool) {
	if c.store[base+c.ways+1]>>(v-base)&1 == 0 {
		return 0, false
	}
	set := uint64(l) >> mem.LineShift & (c.nSets - 1)
	return mem.Addr(((c.store[v]-1)*c.nSets + set) << mem.LineShift), true
}

// touch makes way w of the set at base the most recently used, marking it
// dirty on a write.
func (c *Cache) touch(base, w int, write bool) {
	o := &c.store[base+c.ways]
	*o = uint64(mem.LRU(*o).Touch(w-base, c.ways))
	if write {
		c.store[base+c.ways+1] |= 1 << (w - base)
	}
}

// fillWay writes a freshly installed line into way v of the set at base.
func (c *Cache) fillWay(base, v int, want uint64, dirty bool) {
	c.store[v] = want
	c.store[base+c.ways+1] &^= 1 << (v - base)
	c.touch(base, v, dirty)
}

func (c *Cache) getTxn() *cacheTxn {
	c.liveTxn++
	t := c.freeTxn
	if t == nil {
		t = &cacheTxn{c: c}
		t.fn = func() { t.c.afterTagLookup(t) }
		return t
	}
	c.freeTxn = t.next
	t.next = nil
	return t
}

func (c *Cache) putTxn(t *cacheTxn) {
	c.liveTxn--
	t.line, t.write, t.meta, t.done = 0, false, Meta{}, nil
	t.next = c.freeTxn
	c.freeTxn = t
}

func (c *Cache) getMSHR() *mshr {
	c.liveMSHR++
	m := c.freeMSHR
	if m == nil {
		m = &mshr{c: c}
		m.fillFn = func() { m.c.fill(m) }
		return m
	}
	c.freeMSHR = m.next
	m.next = nil
	return m
}

func (c *Cache) putMSHR(m *mshr) {
	c.liveMSHR--
	for i := range m.waiters {
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	for i := range m.vwaiters {
		m.vwaiters[i] = nil
	}
	m.vwaiters = m.vwaiters[:0]
	m.line, m.meta, m.write = 0, Meta{}, false
	m.next = c.freeMSHR
	c.freeMSHR = m
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
	base, want := c.index(l)
	if w := c.find(base, want); w >= 0 {
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
	if m, _ := c.mshrs.Get(mem.LineNum(l)); m != nil {
		c.stats.MSHRMerges++
		m.write = m.write || write
		if done != nil {
			m.waiters = append(m.waiters, done)
		}
		if meta.V != nil {
			m.vwaiters = append(m.vwaiters, meta.V)
		}
		return
	}
	m := c.getMSHR()
	m.line, m.meta, m.write = l, meta, write
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.mshrs.Put(mem.LineNum(l), m)
	// Fetch the line from below. The fill installs it and releases waiters.
	fetchMeta := meta
	fetchMeta.Writeback = false
	c.next.Access(l, false, fetchMeta, m.fillFn)
}

func (c *Cache) fill(m *mshr) {
	if got, _ := c.mshrs.Del(mem.LineNum(m.line)); got != m {
		panic(fmt.Sprintf("cache %s: fill for %#x without MSHR", c.cfg.Name, uint64(m.line)))
	}
	c.install(m.line, m.write, m.meta)
	// Mergers spent their whole wait parked in this MSHR while the creator's
	// vector accumulated the downstream story; charge them the wait here.
	if len(m.vwaiters) > 0 {
		now := c.sim.Now()
		for _, v := range m.vwaiters {
			v.Take(attrib.CompMSHR, now)
		}
	}
	// Index loop: a waiter that misses this cache again grabs a fresh MSHR
	// (m is still checked out), so m.waiters cannot grow underneath us; the
	// record returns to the pool only after the last waiter ran.
	for i := 0; i < len(m.waiters); i++ {
		m.waiters[i]()
	}
	c.putMSHR(m)
}

func (c *Cache) install(l mem.Addr, dirty bool, meta Meta) {
	base, want := c.index(l)
	v := c.victim(base)
	if victimAddr, ok := c.dirtyVictim(l, base, v); ok {
		c.stats.Writebacks++
		wb := Meta{Core: meta.Core, PID: meta.PID, Writeback: true}
		c.next.Access(victimAddr, true, wb, nil)
	}
	c.fillWay(base, v, want, dirty)
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
	base, want := c.index(l)
	if w := c.find(base, want); w >= 0 {
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
	base, want := c.index(l)
	v := c.victim(base)
	if victimAddr, ok := c.dirtyVictim(l, base, v); ok {
		wb := Meta{Core: meta.Core, PID: meta.PID, Writeback: true}
		c.functionalNext().AccessFunctional(victimAddr, true, wb)
	}
	c.fillWay(base, v, want, dirty)
}

// Contains reports whether the line is currently resident (for tests).
func (c *Cache) Contains(addr mem.Addr) bool {
	return c.lookup(mem.LineOf(addr)) >= 0
}

// OutstandingMisses returns the number of live MSHRs (for tests).
func (c *Cache) OutstandingMisses() int { return c.mshrs.Len() }

// Audit reports end-of-run invariant violations: a quiesced cache has no
// outstanding MSHRs and every pooled record back on its free list.
func (c *Cache) Audit(a *check.Audit) {
	a.Checkf(c.mshrs.Len() == 0,
		"cache %s: %d MSHR(s) still outstanding at quiescence (leaked miss)", c.cfg.Name, c.mshrs.Len())
	a.Checkf(c.liveMSHR == 0,
		"cache %s: %d pooled MSHR record(s) never returned", c.cfg.Name, c.liveMSHR)
	a.Checkf(c.liveTxn == 0,
		"cache %s: %d pooled access record(s) never returned", c.cfg.Name, c.liveTxn)
}

// ResetStats zeroes all counters (e.g. after warm-up) without touching
// cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }
