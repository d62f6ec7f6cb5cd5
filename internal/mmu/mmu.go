package mmu

import (
	"pageseer/internal/cache"
	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs/attrib"
)

// Hint is the MMU -> HMC signal PageSeer adds (action 1 in Figure 3): sent
// as soon as the walk reaches the fourth translation level and the address
// of the line holding the PTE is known.
//
// LeafPPN carries the value stored in the PTE. The hardware only learns it
// after reading the PTE line from memory; the MMU Driver models that timing
// by issuing its own DRAM read before acting on the value. The field exists
// so the driver does not need a back-pointer into the OS page tables.
type Hint struct {
	Core    int
	PID     int
	VPN     mem.VPN
	PTELine mem.Addr
	LeafPPN mem.PPN

	// Cycle is when the walker computed the final-PTE address — the start
	// of the hint's causal chain in the swap-provenance ledger. The hint
	// itself arrives hintLatency cycles later.
	Cycle uint64
}

// Hinter receives MMU hints. PageSeer's HMC implements it; baseline
// controllers leave the MMU unhinted (nil).
type Hinter interface {
	MMUHint(Hint)
}

// hintLatency is the MMU->HMC wire delay in CPU cycles (Table II).
const hintLatency = 2

// Config gathers the per-core MMU parameters that vary with the memory
// scale: the two TLB levels.
type Config struct {
	L1TLB TLBConfig
	L2TLB TLBConfig
}

// DefaultConfig returns the paper's MMU parameters.
func DefaultConfig() Config {
	return Config{L1TLB: L1TLBConfig(), L2TLB: L2TLBConfig()}
}

// Stats counts translation activity.
type Stats struct {
	L1Hits    uint64
	L1Misses  uint64
	L2Hits    uint64
	L2Misses  uint64
	Walks     uint64
	WalkReads uint64
	Hints     uint64
}

// Add accumulates o into s — the only way sim.collect may sum per-core MMU
// stats, so a newly added counter cannot be silently dropped from
// aggregation. Keep it exhaustive: the reflection test in internal/sim pins
// that every numeric field survives.
func (s *Stats) Add(o Stats) {
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.Walks += o.Walks
	s.WalkReads += o.WalkReads
	s.Hints += o.Hints
}

// MMU is one core's translation machinery. Walk reads go through walkPort
// (the core's L2 cache — page-table lines are not kept in L1, per the
// paper), so they populate L2/L3 and can reach the memory controller.
//
// Translations run on pooled transaction records (transTxn) whose stage
// closures are bound once, and the single page walker per core reuses one
// walk-state record with pre-bound continuations — so the TLB-hit fast path
// and the walk ladder both run allocation-free in steady state.
type MMU struct {
	sim      *engine.Sim
	os       *mem.OS
	core     int
	pid      int
	cfg      Config
	l1       *TLB
	l2       *TLB
	pwc      *PWC
	walkPort cache.Backend
	hinter   Hinter

	txnPool  mem.Pool[transTxn]
	hintPool mem.Pool[hintTxn]

	// ffPort caches the walkPort FunctionalBackend assertion for the sampled
	// fast-forward path; nil until first functional use.
	ffPort cache.FunctionalBackend

	// Single-walker state: the paper's cores have one page walker, so walks
	// serialise and one reusable record suffices.
	walking   bool
	walkQ     []*transTxn
	wkTxn     *transTxn
	wkWalk    mem.Walk
	wkLevel   mem.Level
	wkStartFn func() // fires after the PWC probe latency
	wkStepFn  func() // fires when a walk read returns from walkPort

	stats Stats
}

// hintTxn carries one hint across its wire delay on a pooled record with a
// pre-bound deliver closure: hints fire on every page walk, so an ad-hoc
// closure here would put an allocation on the steady-state walk path.
type hintTxn struct {
	m  *MMU
	h  Hint
	fn func()
}

func (m *MMU) getHint() *hintTxn {
	t := m.hintPool.Get()
	if t == nil {
		t = &hintTxn{m: m}
		t.fn = func() {
			h := t.h
			t.m.putHint(t)
			t.m.hinter.MMUHint(h)
		}
	}
	return t
}

func (m *MMU) putHint(t *hintTxn) {
	t.h = Hint{}
	m.hintPool.Put(t)
}

// FunctionalHinter is the optional no-event counterpart of Hinter: a hinter
// that also implements it receives fast-forward hints immediately, mutating
// architectural state (PTE cache, prefetch-swap decisions) without events.
type FunctionalHinter interface {
	MMUHintFunctional(Hint)
}

// TranslateFunctional resolves va immediately, warming the TLBs, the PWC,
// and the page-table lines in the cache hierarchy exactly as a detailed
// walk would — same lookup order, same inserts — but scheduling no events
// and bumping no statistics. Sampled fast-forward uses it between detailed
// windows; walkPort must implement cache.FunctionalBackend.
func (m *MMU) TranslateFunctional(va mem.VAddr) mem.PPN {
	vpn := mem.VPageOf(va)
	if ppn, ok := m.l1.Lookup(m.pid, vpn); ok {
		return ppn
	}
	if ppn, ok := m.l2.Lookup(m.pid, vpn); ok {
		m.l1.Insert(m.pid, vpn, ppn)
		return ppn
	}
	walk := m.os.WalkVA(m.pid, va)
	start := mem.PGD
	if lvl, _, ok := m.pwc.Lookup(m.pid, va); ok {
		start = lvl + 1
	}
	port := m.functionalWalkPort()
	for l := start; l <= mem.PTE; l++ {
		if l == mem.PTE {
			if fh, ok := m.hinter.(FunctionalHinter); ok {
				fh.MMUHintFunctional(Hint{
					Core:    m.core,
					PID:     m.pid,
					VPN:     vpn,
					PTELine: mem.LineOf(walk.Steps[mem.PTE].EntryAddr),
					LeafPPN: walk.Leaf,
					Cycle:   m.sim.Now(),
				})
			}
		}
		meta := cache.Meta{Core: m.core, PID: m.pid, PageWalk: true, IsPTE: l == mem.PTE}
		port.AccessFunctional(walk.Steps[l].EntryAddr, false, meta)
		if l < mem.PTE {
			m.pwc.Insert(m.pid, va, l, mem.PageOf(walk.Steps[l+1].EntryAddr))
		}
	}
	leaf := walk.Leaf
	m.l1.Insert(m.pid, vpn, leaf)
	m.l2.Insert(m.pid, vpn, leaf)
	return leaf
}

// functionalWalkPort asserts the walk port's functional interface, caching
// the result so fast-forward pays the assertion once per MMU.
func (m *MMU) functionalWalkPort() cache.FunctionalBackend {
	if m.ffPort == nil {
		fb, ok := m.walkPort.(cache.FunctionalBackend)
		if !ok {
			panic("mmu: walk port does not support functional access")
		}
		m.ffPort = fb
	}
	return m.ffPort
}

// transTxn is one in-flight translation: the lookup payload plus the two
// TLB-stage closures pre-bound to the record.
type transTxn struct {
	m    *MMU
	va   mem.VAddr
	v    *attrib.Vector // blame vector of the demand access being translated (nil when off)
	done func(mem.PPN)

	l1Fn func()
	l2Fn func()
}

// New builds an MMU for (core, pid) whose walker reads page tables through
// walkPort. hinter may be nil (no MMU->HMC signal, as in the baselines).
func New(sim *engine.Sim, osm *mem.OS, core, pid int, cfg Config, walkPort cache.Backend, hinter Hinter) *MMU {
	m := &MMU{
		sim:      sim,
		os:       osm,
		core:     core,
		pid:      pid,
		cfg:      cfg,
		l1:       NewTLB(cfg.L1TLB),
		l2:       NewTLB(cfg.L2TLB),
		pwc:      NewPWC(),
		walkPort: walkPort,
		hinter:   hinter,
	}
	m.wkStartFn = m.walkStart
	m.wkStepFn = m.walkStep
	return m
}

func (m *MMU) getTxn() *transTxn {
	t := m.txnPool.Get()
	if t == nil {
		t = &transTxn{m: m}
		t.l1Fn = func() { t.m.l1Stage(t) }
		t.l2Fn = func() { t.m.l2Stage(t) }
	}
	return t
}

func (m *MMU) putTxn(t *transTxn) {
	t.va, t.v, t.done = 0, nil, nil
	m.txnPool.Put(t)
}

// Stats returns a snapshot of the counters.
func (m *MMU) Stats() Stats { return m.stats }

// PID returns the process this MMU translates for.
func (m *MMU) PID() int { return m.pid }

// Translate resolves va to the OS-visible physical page, modelling TLB and
// page-walk timing. done receives the PPN when the translation is ready. v
// is the request's cycle-accounting blame vector, nil when attribution is
// off: TLB lookup time is charged to CompTLB, everything from the walker
// queue to the leaf PTE return to CompWalk (with PTE-cache service
// separable via CompPTECache).
func (m *MMU) Translate(va mem.VAddr, v *attrib.Vector, done func(mem.PPN)) {
	t := m.getTxn()
	t.va, t.v, t.done = va, v, done
	m.sim.After(m.cfg.L1TLB.Latency, t.l1Fn)
}

func (m *MMU) l1Stage(t *transTxn) {
	vpn := mem.VPageOf(t.va)
	if ppn, ok := m.l1.Lookup(m.pid, vpn); ok {
		m.stats.L1Hits++
		t.v.Take(attrib.CompTLB, m.sim.Now())
		done := t.done
		m.putTxn(t)
		done(ppn)
		return
	}
	m.stats.L1Misses++
	m.sim.After(m.cfg.L2TLB.Latency, t.l2Fn)
}

func (m *MMU) l2Stage(t *transTxn) {
	vpn := mem.VPageOf(t.va)
	// Hit or miss, the cycles since the last stamp were TLB lookup time; on
	// a miss the walker (queue + PWC probe + ladder) owns what follows.
	t.v.Take(attrib.CompTLB, m.sim.Now())
	if ppn, ok := m.l2.Lookup(m.pid, vpn); ok {
		m.stats.L2Hits++
		m.l1.Insert(m.pid, vpn, ppn)
		done := t.done
		m.putTxn(t)
		done(ppn)
		return
	}
	m.stats.L2Misses++
	m.enqueueWalk(t)
}

// enqueueWalk serialises page walks: each core has a single page walker.
func (m *MMU) enqueueWalk(t *transTxn) {
	m.walkQ = append(m.walkQ, t)
	if !m.walking {
		m.startNextWalk()
	}
}

// startNextWalk pops the next queued translation and begins its walk. The
// OS maps the page on first touch (zero-cost fault; see mem.OS); the
// hardware cost modelled here is the PWC probe plus one cached memory read
// per remaining level.
func (m *MMU) startNextWalk() {
	if len(m.walkQ) == 0 {
		m.walking = false
		return
	}
	m.walking = true
	t := m.walkQ[0]
	n := copy(m.walkQ, m.walkQ[1:])
	m.walkQ[n] = nil
	m.walkQ = m.walkQ[:n]

	m.wkTxn = t
	m.stats.Walks++
	m.wkWalk = m.os.WalkVA(m.pid, t.va)
	m.sim.After(pwcLatency, m.wkStartFn)
}

func (m *MMU) walkStart() {
	// Walker queue wait + PWC probe are walk time; from here until the leaf
	// returns, every downstream stamp (caches, memory) redirects to CompWalk
	// so the walk shows up as one component in the CPI stack.
	t := m.wkTxn
	t.v.Take(attrib.CompWalk, m.sim.Now())
	t.v.SetWalk(true)
	start := mem.PGD
	if lvl, _, ok := m.pwc.Lookup(m.pid, t.va); ok {
		start = lvl + 1
	}
	m.wkLevel = start
	m.walkLevel()
}

func (m *MMU) walkLevel() {
	va, l := m.wkTxn.va, m.wkLevel
	if l == mem.PTE && m.hinter != nil {
		// The address of the PTE line is now known: signal the HMC in
		// parallel with the L2 request (Figure 3, action 1). The hint rides
		// a pooled record: its 2-cycle wire delay may still be in flight
		// when the walker state moves on, so it cannot live on the reusable
		// walk record — and hints fire on every walk, so it must not
		// allocate either.
		m.stats.Hints++
		ht := m.getHint()
		ht.h = Hint{
			Core:    m.core,
			PID:     m.pid,
			VPN:     mem.VPageOf(va),
			PTELine: mem.LineOf(m.wkWalk.Steps[mem.PTE].EntryAddr),
			LeafPPN: m.wkWalk.Leaf,
			Cycle:   m.sim.Now(),
		}
		m.sim.After(hintLatency, ht.fn)
	}
	m.stats.WalkReads++
	meta := cache.Meta{Core: m.core, PID: m.pid, PageWalk: true, IsPTE: l == mem.PTE, V: m.wkTxn.v}
	m.walkPort.Access(m.wkWalk.Steps[l].EntryAddr, false, meta, m.wkStepFn)
}

func (m *MMU) walkStep() {
	if m.wkLevel < mem.PTE {
		// Cache the discovered next-table frame in the PWC. The frame
		// is the page holding the next level's entry.
		next := mem.PageOf(m.wkWalk.Steps[m.wkLevel+1].EntryAddr)
		m.pwc.Insert(m.pid, m.wkTxn.va, m.wkLevel, next)
		m.wkLevel++
		m.walkLevel()
		return
	}
	t := m.wkTxn
	m.wkTxn = nil
	vpn := mem.VPageOf(t.va)
	leaf := m.wkWalk.Leaf
	m.l1.Insert(m.pid, vpn, leaf)
	m.l2.Insert(m.pid, vpn, leaf)
	// The leaf read just stamped (redirected into CompWalk); end the redirect
	// so the data access that follows charges its own components.
	t.v.SetWalk(false)
	done := t.done
	m.putTxn(t)
	done(leaf)
	m.startNextWalk()
}

// Audit reports end-of-run invariant violations: a quiesced MMU has an idle
// walker, an empty walk queue, and every pooled translation record back in
// its pool.
func (m *MMU) Audit(a *check.Audit) {
	a.Checkf(!m.walking,
		"mmu core %d: page walker still busy at quiescence", m.core)
	a.Checkf(len(m.walkQ) == 0,
		"mmu core %d: %d translation(s) still queued for the walker", m.core, len(m.walkQ))
	a.Checkf(m.wkTxn == nil,
		"mmu core %d: walk record still checked out", m.core)
	a.Checkf(m.txnPool.Live() == 0,
		"mmu core %d: %d pooled translation record(s) never returned", m.core, m.txnPool.Live())
}

// ResetStats zeroes the MMU counters (e.g. after warm-up), keeping TLB and
// PWC contents.
func (m *MMU) ResetStats() { m.stats = Stats{} }
