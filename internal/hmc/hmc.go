// Package hmc provides the Hybrid Memory Controller framework shared by
// PageSeer and the baseline schemes: request routing between the DRAM and
// NVM timing models, on-controller metadata caches backed by DRAM-resident
// tables, the exchange core all three swapping schemes share, the swap
// engine that carries out each of its exchanges (a Move: a Pair, an
// optimized slow swap or a Restore) line by line through the swap
// buffers, service-source and positive/negative/neutral accounting, and a
// data-integrity oracle.
//
// A concrete scheme (PageSeer, PoM, MemPod, or the no-swap Static manager)
// plugs in as a Manager: it receives every request that reaches the
// controller plus any MMU hints, decides remapping and swaps, and serves
// requests through the controller's helpers so all schemes are measured
// identically.
package hmc

import (
	"fmt"

	"pageseer/internal/cache"
	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/mmu"
	"pageseer/internal/obs"
	"pageseer/internal/obs/attrib"
)

// Request is one LLC miss (or writeback) that reached the controller. Line
// is the OS-visible physical address — remapping below the LLC means every
// request must be translated by the manager before touching memory.
//
// Requests are pooled by the controller: a record returns to the pool
// when it completes (or, for writebacks, when its write is issued), so the
// per-request allocation the controller used to pay — the record itself
// plus the memory-completion closure — disappears in steady state.
// Managers must not retain a *Request past its completion.
type Request struct {
	Line    mem.Addr
	Write   bool
	Meta    cache.Meta
	Arrival uint64
	done    func()
	ctl     *Controller
	served  bool
	epoch   uint64 // controller epoch at checkout; stale => stats-silent completion

	// Completion plumbing for the pooled record: src, the structure that
	// serves the request, and issued are filled by ServeMemory/ServeDirect;
	// memDoneFn and directFn are bound once when the record is minted.
	src       obs.LatSource
	issued    uint64
	memDoneFn func()
	directFn  func()
	routeFn   func()
	bufFn     func()
}

// RouteFn returns the request's pre-bound routing continuation: it
// translates r.Line through the manager's TranslateLine and finishes the
// request (swap-buffer interception, writeback absorption, or memory).
// Managers hand it to their metadata-cache lookup so the remap-entry wait
// costs no per-request closure.
func (r *Request) RouteFn() func() { return r.routeFn }

// Manager is one hybrid-memory management scheme.
type Manager interface {
	// Name identifies the scheme in reports.
	Name() string
	// HandleRequest owns the request: translate it, optionally trigger
	// swaps, and complete it via Controller.ServeMemory / ServeBuffer.
	HandleRequest(r *Request)
	// MMUHint delivers a page-walk hint (PageSeer only; others ignore it).
	MMUHint(h mmu.Hint)
	// TranslateLine returns the physical line currently holding the data of
	// OS-visible line addr (architectural state, no timing). Line
	// granularity keeps the interface exact for schemes that remap 2KB
	// segments as well as 4KB pages.
	TranslateLine(addr mem.Addr) mem.Addr
	// CheckIntegrity verifies the scheme's translation state against the
	// shared oracle; used by tests and debug runs.
	CheckIntegrity() error
}

// Stats aggregates scheme-independent controller counters.
type Stats struct {
	Demand     uint64 // non-writeback requests
	DataDemand uint64 // demand excluding page-walk reads
	Writebacks uint64

	ServedDRAM uint64 // of DataDemand
	ServedNVM  uint64
	ServedBuf  uint64

	Positive uint64 // of DataDemand: NVM-resident page served from DRAM/buffer
	Negative uint64 // DRAM-resident page served from NVM
	Neutral  uint64

	// LatencyTotal sums, over all demand requests, the cycles from HMC
	// arrival to data return. LatencyTotal/Demand is the AMMAT.
	LatencyTotal uint64
	// MemLatencyTotal sums only the memory-module portion (issue to data
	// return) of demand requests, for AMMAT decomposition.
	MemLatencyTotal uint64

	PTEReachedHMC  uint64 // leaf-PTE reads that missed L2+L3 (Figure 12)
	PTEServedByHMC uint64 // of those, served by the MMU Driver cache
}

// Add accumulates o into s (sampled-window aggregation).
func (s *Stats) Add(o Stats) {
	s.Demand += o.Demand
	s.DataDemand += o.DataDemand
	s.Writebacks += o.Writebacks
	s.ServedDRAM += o.ServedDRAM
	s.ServedNVM += o.ServedNVM
	s.ServedBuf += o.ServedBuf
	s.Positive += o.Positive
	s.Negative += o.Negative
	s.Neutral += o.Neutral
	s.LatencyTotal += o.LatencyTotal
	s.MemLatencyTotal += o.MemLatencyTotal
	s.PTEReachedHMC += o.PTEReachedHMC
	s.PTEServedByHMC += o.PTEServedByHMC
}

// Controller is the hybrid memory controller shell.
type Controller struct {
	Sim    *engine.Sim
	OS     *mem.OS
	Layout mem.Map
	DRAM   *memsim.Module
	NVM    *memsim.Module
	Engine *SwapEngine
	Oracle *Oracle

	// Latency holds the per-source demand-latency histograms (Results'
	// latency percentiles); recording is allocation-free.
	Latency obs.LatencySet

	unit    uint // log2 of the swap unit of the remap and the oracle
	mgr     Manager
	ffMgr   FunctionalManager    // mgr's functional path, nil if unsupported
	ffHint  mmu.FunctionalHinter // mgr's functional hint path, nil if unsupported
	stats   Stats
	reqPool mem.Pool[Request]

	// epoch advances on every ResetStats. A request checked out under an
	// older epoch had its arrival counted in statistics that were since
	// zeroed, so its completion must be stats-silent — otherwise the
	// service/effectiveness conservation laws (Audit) break by exactly the
	// number of requests in flight across the reset. The sampled scheduler
	// resets mid-flight on purpose (between an undrained per-window warm-up
	// and its measurement window); on a drained machine the epoch guard is
	// inert and completions are byte-identical to the unguarded path.
	epoch uint64

	// inj (nil when no fault plan is active) forces rare conditions at the
	// controller's decision points; see check.Injector.
	inj *check.Injector

	// Observability, both nil-guarded: a controller without them pays one
	// branch per request and zero allocations (the obs package's
	// zero-cost-when-off contract). probe is the swap-lifecycle event
	// stream; prov, when a subscriber provides it, classifies retiring
	// demand by swap provenance.
	probe obs.Probes
	prov  provenance

	// meta lists the regions AllocMetaRegion reserved, which no swap may
	// move (Pinned); caches lists the metadata caches NewMetaCache built,
	// which ResetStats and Audit cover.
	meta   []MetaRegion
	caches []*MetaCache

	// onSeal holds the sizing of the per-frame tables built before Seal.
	onSeal []func(frames uint64)
}

// NewController builds a controller over the OS's address map with the
// paper's memory parts: the Table I DRAM and NVM modules and the swap engine.
func NewController(sim *engine.Sim, osm *mem.OS) *Controller {
	layout := osm.Map()
	c := &Controller{
		Sim:    sim,
		OS:     osm,
		Layout: layout,
		Oracle: NewOracle(0),
		unit:   mem.PageShift,
	}
	c.DRAM = memsim.New(sim, memsim.DRAMConfig(), 0, layout.DRAMBytes)
	c.NVM = memsim.New(sim, memsim.NVMConfig(), mem.Addr(layout.DRAMBytes), layout.NVMBytes)
	c.Engine = NewSwapEngine(sim, c.IssueLine, c.PromoteLine)
	c.Engine.isDRAM = layout.IsDRAM
	return c
}

// NewRemap returns a manager's remap table over the frames a run can name
// in swap units of 1<<unitShift bytes, and keys the oracle to the same unit
// (a page until a NewRemap says otherwise). Managers call it from their
// constructors, before any traffic; the table is empty until Seal sizes it.
func (c *Controller) NewRemap(unitShift uint) *Remap {
	c.unit = unitShift
	r := &Remap{}
	c.OnSeal(func(frames uint64) { r.size(frames << mem.PageShift >> unitShift) })
	return r
}

// OnSeal registers size to build per-frame state over the domain Seal
// fixes, in 4KB frames. Managers call it from their constructors.
func (c *Controller) OnSeal(size func(frames uint64)) { c.onSeal = append(c.onSeal, size) }

// Seal fixes the per-frame domain at frames 4KB frames from frame 0 and
// sizes the oracle and every table registered through NewRemap and OnSeal
// to it. Build calls it once the footprint is mapped and before any
// traffic, with the frames a run can name (every DRAM frame and the NVM
// frames mapped, mem.Allocator.Named), so no per-frame table grows during
// a run; a frame outside the domain panics with a *mem.DomainError.
func (c *Controller) Seal(frames uint64) {
	*c.Oracle = Oracle{units: frames << mem.PageShift >> c.unit}
	for _, size := range c.onSeal {
		size(frames)
	}
	c.onSeal = nil
}

// UnitShift returns log2 of the installed scheme's swap unit: the unit of
// its remap and of the oracle (a page until a NewRemap says otherwise).
func (c *Controller) UnitShift() uint { return c.unit }

// SetManager installs the management scheme. Must be called before traffic.
func (c *Controller) SetManager(m Manager) {
	c.mgr = m
	c.ffMgr, _ = m.(FunctionalManager)
	c.ffHint, _ = m.(mmu.FunctionalHinter)
}

// Manager returns the installed scheme.
func (c *Controller) Manager() Manager { return c.mgr }

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// provenance reports the trigger of the swap that brought addr's unit into
// DRAM, when it is swapped in (the provenance ledger).
type provenance interface {
	TriggerOf(addr uint64) (obs.Trigger, bool)
}

// Attach subscribes p to the swap-lifecycle event stream (obs.Probe): the
// controller reports MMU hints and demand, writeback and functional
// accesses, its swap engine every accepted op. Subscribers see each event
// in attach order. A subscriber that also knows which swap brought a unit
// into DRAM (provenance) classifies retiring demand for cycle attribution.
func (c *Controller) Attach(p obs.Probe) {
	c.probe = append(c.probe, p)
	c.Engine.probe = c.probe
	if pv, ok := p.(provenance); ok {
		c.prov = pv
	}
}

// Probe returns the event stream (nil when nothing is attached), for the
// events a scheme reports itself: its swap queue's requests and waits.
func (c *Controller) Probe() obs.Probes { return c.probe }

// SetInjector attaches a fault injector to the controller and its swap
// engine (nil detaches). Set it before installing the scheme: each
// metadata cache takes the injector when NewMetaCache builds it.
func (c *Controller) SetInjector(i *check.Injector) {
	c.inj = i
	c.Engine.inj = i
}

// Injector returns the attached fault injector (nil when injection is off).
func (c *Controller) Injector() *check.Injector { return c.inj }

// getRequest pops a pooled record, minting (and binding its completion
// closures) only while the pool warms. Fields are reset here, not at
// release, so a freed record keeps served=true until reuse — a stale
// double-completion in the window between free and reuse still panics.
func (c *Controller) getRequest() *Request {
	r := c.reqPool.Get()
	if r == nil {
		r = &Request{ctl: c}
		r.memDoneFn = func() {
			if r.epoch == r.ctl.epoch {
				r.ctl.stats.MemLatencyTotal += r.ctl.Sim.Now() - r.issued
			}
			r.ctl.complete(r, r.src)
		}
		r.directFn = func() { r.ctl.complete(r, r.src) }
		r.routeFn = func() { r.ctl.routeTranslated(r) }
		r.bufFn = func() { r.ctl.ServeBuffer(r) }
	}
	r.served = false
	r.epoch = c.epoch
	r.src, r.issued = 0, 0
	return r
}

func (c *Controller) putRequest(r *Request) {
	r.Line, r.Write, r.Meta, r.Arrival = 0, false, cache.Meta{}, 0
	r.done = nil
	c.reqPool.Put(r)
}

// Access implements cache.Backend: the LLC's next level.
func (c *Controller) Access(line mem.Addr, write bool, meta cache.Meta, done func()) {
	r := c.getRequest()
	r.Line = mem.LineOf(line)
	r.Write = write
	r.Meta = meta
	r.Arrival = c.Sim.Now()
	r.done = done
	if meta.Writeback {
		c.stats.Writebacks++
	} else {
		c.stats.Demand++
		if !meta.PageWalk {
			c.stats.DataDemand++
		}
		if meta.IsPTE {
			c.stats.PTEReachedHMC++
		}
	}
	if c.mgr == nil {
		panic("hmc: request before SetManager")
	}
	c.mgr.HandleRequest(r)
}

// MMUHint implements mmu.Hinter.
func (c *Controller) MMUHint(h mmu.Hint) {
	c.probe.Hint(uint64(h.LeafPPN.Addr()), h.Cycle, c.Sim.Now(), h.Core, uint64(h.VPN))
	c.mgr.MMUHint(h)
}

// FunctionalManager is the optional no-event counterpart of
// Manager.HandleRequest: apply one request's architectural side effects
// (translation-table updates, hot-page counters, metadata-cache residency,
// instant-commit swaps) immediately, with no events, no timing, and no
// statistics. Schemes that do not implement it fall back to plain
// translation in AccessFunctional — their architectural state does not
// evolve with traffic outside detailed windows, which sampled runs accept
// as the functional-warming approximation for those baselines.
type FunctionalManager interface {
	HandleRequestFunctional(line mem.Addr, write bool, meta cache.Meta)
}

// AccessFunctional implements cache.FunctionalBackend: the sampled
// fast-forward path's LLC-miss sink. Stats-silent by contract.
func (c *Controller) AccessFunctional(line mem.Addr, write bool, meta cache.Meta) {
	l := mem.LineOf(line)
	if c.ffMgr != nil {
		c.ffMgr.HandleRequestFunctional(l, write, meta)
	} else {
		c.mgr.TranslateLine(l)
	}
	if c.probe != nil && !meta.PageWalk {
		// Translate after the functional handler so instant-commit swaps are
		// reflected: the observed residency reconciles the subscribers'
		// tracked state across fast-forward gaps.
		actual := c.mgr.TranslateLine(l)
		c.probe.Functional(uint64(l), write, c.Layout.IsDRAM(actual), c.Sim.Now())
	}
}

// MMUHintFunctional implements mmu.FunctionalHinter, forwarding fast-forward
// page-walk hints to managers that act on them functionally.
func (c *Controller) MMUHintFunctional(h mmu.Hint) {
	if c.ffHint != nil {
		c.ffHint.MMUHintFunctional(h)
	}
}

// IssueLine routes one line access to the owning memory module.
func (c *Controller) IssueLine(addr mem.Addr, write bool, prio memsim.Priority, done func()) {
	c.issue(addr, write, prio, nil, done)
}

// issue routes one line access to its module's Access, passing v, the
// blame vector of the demand request the access serves, for the
// queue-wait / swap-interference / service split (nil for swap traffic,
// metadata fetches, writebacks and runs without attribution). It is the
// only path to the timing models, so swap traffic, metadata fills, and
// demand misses all contend on the same channels — and the single place a
// queue-saturation fault can delay everything at once.
func (c *Controller) issue(addr mem.Addr, write bool, prio memsim.Priority, v *attrib.Vector, done func()) {
	if c.inj != nil {
		if d := c.inj.IssueStallCycles(); d > 0 {
			c.Sim.After(d, func() { c.Route(addr).Access(addr, write, prio, v, done) })
			return
		}
	}
	c.Route(addr).Access(addr, write, prio, v, done)
}

// PromoteLine raises an already-queued access for addr's line to demand
// priority (requested-line-first servicing of in-flight swaps).
func (c *Controller) PromoteLine(addr mem.Addr) { c.Route(addr).Promote(addr) }

// Route returns the module owning addr.
func (c *Controller) Route(addr mem.Addr) *memsim.Module {
	if c.Layout.IsDRAM(addr) {
		return c.DRAM
	}
	if !c.Layout.Contains(addr) {
		panic(fmt.Sprintf("hmc: address %#x outside physical memory", uint64(addr)))
	}
	return c.NVM
}

// ServeMemory completes a request from the memory at the translated address.
func (c *Controller) ServeMemory(r *Request, actual mem.Addr) {
	src := obs.LatNVM
	if c.Layout.IsDRAM(actual) {
		src = obs.LatDRAM
	}
	if r.Meta.Writeback {
		// Writebacks contend for bandwidth but complete asynchronously; the
		// record's job ends once the write is enqueued. A writeback landing
		// on NVM is one line-write of wear against the OS-visible page.
		c.probe.Writeback(uint64(r.Line), src == obs.LatDRAM, c.Sim.Now())
		c.putRequest(r)
		c.IssueLine(actual, true, memsim.PrioDemand, nil)
		return
	}
	r.src = src
	r.issued = c.Sim.Now()
	c.issue(actual, r.Write, memsim.PrioDemand, r.Meta.V, r.memDoneFn)
}

// noopFn is the shared waiter for writebacks absorbed by an in-flight swap:
// the buffered line is already newer than memory, so nothing runs on
// service, and sharing one func avoids a per-writeback allocation.
var noopFn = func() {}

// routeTranslated is the tail every manager's HandleRequest reaches once
// the remap entry is known (the body of Request.RouteFn): translate, try
// the swap buffers, fall through to memory.
func (c *Controller) routeTranslated(r *Request) {
	// The remap entry just became available: everything since the previous
	// stamp (the metadata-cache probe, zero for schemes that route without
	// one) is remap stall.
	r.Meta.V.Take(attrib.CompRemap, c.Sim.Now())
	actual := c.mgr.TranslateLine(r.Line)
	if r.Meta.Writeback {
		if c.Engine.TryService(actual, nil, noopFn) {
			c.putRequest(r)
			return
		}
		c.ServeMemory(r, actual)
		return
	}
	if c.Engine.TryService(actual, r.Meta.V, r.bufFn) {
		return
	}
	c.ServeMemory(r, actual)
}

// ServeBuffer completes a request from the swap buffers; the manager must
// already have arranged servicing via the swap engine and calls this from
// the engine's callback.
func (c *Controller) ServeBuffer(r *Request) { c.complete(r, obs.LatBuf) }

// ServeDirect completes r after latency cycles, attributing it to src, for
// managers that satisfied the data through their own structures (LatPTE:
// the MMU Driver's small PTE cache, PageSeer Section III-B benefit one) or
// an already-issued memory fetch.
func (c *Controller) ServeDirect(r *Request, src obs.LatSource, latency uint64) {
	if src == obs.LatPTE {
		c.stats.PTEServedByHMC++
	}
	r.src = src
	c.Sim.After(latency, r.directFn)
}

func (c *Controller) complete(r *Request, src obs.LatSource) {
	if r.served {
		panic("hmc: request completed twice")
	}
	r.served = true
	now := c.Sim.Now()
	if v := r.Meta.V; v != nil {
		// Final blame stamp: the service source closes the request's last
		// interval (a residual of zero when the timing model already
		// stamped it). Page-walk reads redirect to CompWalk by vector
		// state; the PTE cache stays separable on purpose.
		switch src {
		case obs.LatPTE:
			v.TakePTE(now)
		case obs.LatBuf:
			v.Take(attrib.CompSwapBuf, now)
		case obs.LatDRAM:
			v.Take(attrib.CompDRAM, now)
		default:
			v.Take(attrib.CompNVM, now)
		}
		if !r.Meta.PageWalk {
			// Classify the retiring request by the provenance of the data
			// it landed on: hint-prefetched DRAM hits separate from
			// regular ones.
			var tr obs.Trigger
			ok := false
			if c.prov != nil {
				tr, ok = c.prov.TriggerOf(uint64(r.Line))
			}
			v.SetClass(attrib.ClassOf(tr, ok))
		}
	}
	if r.epoch == c.epoch {
		// Stale-epoch requests (in flight across a ResetStats) skip every
		// counter here: their arrival was counted in the zeroed statistics,
		// so counting their service would break the conservation laws the
		// Audit enforces. The blame-vector stamps above still run — the
		// attribution layer closes intervals per request and handles reset
		// boundaries itself.
		lat := now - r.Arrival
		c.stats.LatencyTotal += lat
		c.Latency.Record(src, lat)
		if !r.Meta.PageWalk {
			switch src {
			case obs.LatDRAM:
				c.stats.ServedDRAM++
			case obs.LatNVM:
				c.stats.ServedNVM++
			case obs.LatBuf:
				c.stats.ServedBuf++
			}
			origDRAM := c.Layout.IsDRAM(r.Line)
			servedFast := src != obs.LatNVM
			switch {
			case !origDRAM && servedFast:
				c.stats.Positive++
			case origDRAM && !servedFast:
				c.stats.Negative++
			default:
				c.stats.Neutral++
			}
		}
		// Demand is reported on the OS-visible line, the data identity
		// every subscriber keys on. Of the page-walk reads only the leaf-PTE
		// reads the MMU Driver's cache intercepted are reported: the
		// PTE-cache-bypass class of the per-page source split (LatPTE
		// implies PageWalk).
		if c.probe != nil && (!r.Meta.PageWalk || src == obs.LatPTE) {
			c.probe.Demand(uint64(r.Line), r.Write, src, now)
		}
	}
	// Release before the callback: done may re-enter Access and is then
	// handed this same record, which is exactly the pooled steady state.
	done := r.done
	c.putRequest(r)
	if done != nil {
		done()
	}
}

// AMMAT returns the average main-memory access time so far, in CPU cycles.
func (c *Controller) AMMAT() float64 {
	if c.stats.Demand == 0 {
		return 0
	}
	return float64(c.stats.LatencyTotal) / float64(c.stats.Demand)
}

// AllocMetaRegion reserves contiguous DRAM for a controller table (the full
// PRT/PCT or a baseline remap table). It must run before any workload
// allocation so the frames come out contiguous; it panics otherwise.
func (c *Controller) AllocMetaRegion(bytes, entrySize uint64) MetaRegion {
	nFrames := (bytes + mem.PageSize - 1) / mem.PageSize
	var base mem.PPN
	for i := uint64(0); i < nFrames; i++ {
		p, ok := c.OS.Allocator().AllocDRAM()
		if !ok {
			panic("hmc: DRAM exhausted while reserving metadata region")
		}
		if i == 0 {
			base = p
		} else if p != base+mem.PPN(i) {
			panic("hmc: metadata region not contiguous; reserve it before starting workloads")
		}
	}
	r := MetaRegion{Base: base.Addr(), Bytes: nFrames * mem.PageSize, EntrySize: entrySize}
	c.meta = append(c.meta, r)
	return r
}

// NewMetaCache builds a scheme's metadata cache over region: its line
// traffic issues through the controller, it takes the controller's fault
// injector, and ResetStats and Audit cover it.
func (c *Controller) NewMetaCache(cfg MetaCacheConfig, region MetaRegion) *MetaCache {
	mc := NewMetaCache(c.Sim, cfg, region, c.IssueLine)
	mc.inj = c.inj
	c.caches = append(c.caches, mc)
	return mc
}

// Pinned reports whether frame must never be relocated by a swap: it holds
// a controller table reserved through AllocMetaRegion, or a page table.
func (c *Controller) Pinned(frame mem.PPN) bool {
	a := frame.Addr()
	for _, r := range c.meta {
		if a >= r.Base && uint64(a-r.Base) < r.Bytes {
			return true
		}
	}
	return c.OS.IsPageTable(frame)
}

// VerifyIntegrity checks the manager's translation state against the
// oracle. It is cheap enough for tests but is not called on hot paths.
func (c *Controller) VerifyIntegrity() error { return c.mgr.CheckIntegrity() }

// Audit reports end-of-run invariant violations: every request completed
// and its pooled record returned, and service-source conservation — each
// data-demand request was served by exactly one of DRAM, NVM, or the swap
// buffers. It then audits the swap engine, both memory modules, every
// metadata cache and the manager, when the manager has an Audit method.
func (c *Controller) Audit(a *check.Audit) {
	a.Checkf(c.reqPool.Live() == 0,
		"hmc: %d pooled request record(s) never completed", c.reqPool.Live())
	served := c.stats.ServedDRAM + c.stats.ServedNVM + c.stats.ServedBuf
	a.Checkf(served == c.stats.DataDemand,
		"hmc: service conservation broken: DRAM+NVM+buf = %d served of %d data-demand requests",
		served, c.stats.DataDemand)
	eff := c.stats.Positive + c.stats.Negative + c.stats.Neutral
	a.Checkf(eff == c.stats.DataDemand,
		"hmc: effectiveness conservation broken: pos+neg+neu = %d of %d data-demand requests",
		eff, c.stats.DataDemand)
	c.Engine.Audit(a)
	c.DRAM.Audit(a)
	c.NVM.Audit(a)
	for _, mc := range c.caches {
		mc.Audit(a)
	}
	if m, ok := c.mgr.(interface{ Audit(*check.Audit) }); ok {
		m.Audit(a)
	}
}

// ResetStats zeroes the controller counters and the attached latency
// histograms (e.g. after warm-up), and advances the request epoch so that
// requests in flight across the reset complete without touching the new
// counters (see Controller.epoch). It also resets the swap engine, both
// memory modules, every metadata cache and the manager, when the manager
// has a ResetStats method. Safe to call mid-flight.
func (c *Controller) ResetStats() {
	c.stats = Stats{}
	c.epoch++
	c.Latency.Reset()
	c.Engine.ResetStats()
	c.DRAM.ResetStats()
	c.NVM.ResetStats()
	for _, mc := range c.caches {
		mc.ResetStats()
	}
	if m, ok := c.mgr.(interface{ ResetStats() }); ok {
		m.ResetStats()
	}
}
