package core

import (
	"fmt"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/mmu"
	"pageseer/internal/obs"
	"pageseer/internal/obs/attrib"
)

// SwapKind distinguishes the three swap triggers of Section III-A.
type SwapKind int

// Swap kinds, in the order Figure 10 reports them.
const (
	SwapRegular     SwapKind = iota // NVM HPT threshold (Section III-C3)
	SwapPrefetchPCT                 // prefetching-triggered prefetch swap
	SwapPrefetchMMU                 // MMU-triggered prefetch swap
	numSwapKinds
)

// kindNames names each SwapKind in labels and probe events.
var kindNames = []string{"regular", "prefetch-pct", "prefetch-mmu"}

// Stats holds PageSeer-specific counters.
type Stats struct {
	SwapsStarted   [numSwapKinds]uint64
	SwapsCompleted [numSwapKinds]uint64

	DeclinedBW       uint64 // Swap Driver bandwidth heuristic
	DeclinedNoVictim uint64 // no usable same-color DRAM frame
	DeclinedQueue    uint64 // swap request queue overflow or expiry
	OptimizedSlow    uint64 // swaps that used the 3R/3W choreography

	HintsReceived uint64

	// Prefetch-swap accuracy (Figure 9): a tracked swap is accurate when
	// the page collects at least AccuracyTarget accesses while in DRAM.
	PrefetchTracked  uint64
	PrefetchAccurate uint64
}

// Add accumulates o into s (sampled-window aggregation).
func (s *Stats) Add(o Stats) {
	for k := range s.SwapsStarted {
		s.SwapsStarted[k] += o.SwapsStarted[k]
		s.SwapsCompleted[k] += o.SwapsCompleted[k]
	}
	s.DeclinedBW += o.DeclinedBW
	s.DeclinedNoVictim += o.DeclinedNoVictim
	s.DeclinedQueue += o.DeclinedQueue
	s.OptimizedSlow += o.OptimizedSlow
	s.HintsReceived += o.HintsReceived
	s.PrefetchTracked += o.PrefetchTracked
	s.PrefetchAccurate += o.PrefetchAccurate
}

// TotalSwaps returns completed swaps across kinds.
func (s Stats) TotalSwaps() uint64 {
	var t uint64
	for _, v := range s.SwapsCompleted {
		t += v
	}
	return t
}

// swapLabels names each swap's transfer span in traces, by exchange shape
// and kind.
var swapLabels = func() (l [3][numSwapKinds]string) {
	for k := SwapKind(0); k < numSwapKinds; k++ {
		l[hmc.Pair][k] = "swap:" + kindNames[k]
		l[hmc.Slow][k] = "swap:" + kindNames[k] + "+opt"
		l[hmc.Restore][k] = "swap:restore:" + kindNames[k]
	}
	return l
}()

// swapIdentity is the obs.Swap identity of a swap of the given shape and
// kind. It maps the paper's SwapKind (plus the follower flag, which the
// kind accounting deliberately folds into the leader's kind) onto the
// observers' trigger taxonomy; the exchange core fills in what moves.
func swapIdentity(shape int, kind SwapKind, follower bool, req uint64) obs.Swap {
	trig := obs.TrigRegular
	switch {
	case follower:
		trig = obs.TrigFollower
	case kind == SwapPrefetchPCT:
		trig = obs.TrigPCT
	case kind == SwapPrefetchMMU:
		trig = obs.TrigMMU
	}
	return obs.Swap{Trigger: trig, Request: req, HintPath: kind == SwapPrefetchMMU, Label: swapLabels[shape][kind]}
}

type prefTrack struct {
	count uint64
	kind  SwapKind
}

// PageSeer is the paper's Hybrid Memory Controller manager. It embeds the
// exchange core at page granularity: the core holds the PRT (the page
// permutation, its DRAM-resident table and the PRTc in front of it) and
// runs every swap. Each committed swap leaves a pair exchanged, so the
// permutation is its own inverse: if pages N and D are swapped, N's data
// sits in frame D and D's in frame N, and every other page is at its
// OS-assigned frame — the PRT invariant of Section III-C1.
type PageSeer struct {
	*hmc.Segments

	sim *engine.Sim
	ctl *hmc.Controller
	cfg Config

	pctc    *hmc.MetaCache
	corr    *Correlator
	hptDRAM *HPT
	hptNVM  *HPT
	pte     *PTECache

	nColors int
	colorRR []mem.PPN // next victim-search start per color; 0 = the color itself

	// windowed DRAM utilization for the Swap Driver heuristic
	utilCheckedAt uint64
	utilLastBusy  uint64
	utilRecent    float64

	// prefTracks holds the open prefetch-accuracy windows, keyed by page.
	prefTracks mem.Table[prefTrack]

	// ffBudget caps how many swaps the functional fast-forward path may
	// commit before the next detailed phase (see SetFFSwapBudget);
	// ffCommits counts the commits it has made over the whole run, and
	// ffVirtual accumulates virtual cycles toward HPT decay (FFAdvance).
	ffBudget  uint64
	ffCommits uint64
	ffVirtual uint64

	// corrPool holds the correlation-evaluation records (one live per
	// in-flight PCTc lookup), keeping the per-invocation PCT check off the
	// allocator. hintPool and servePool pool the MMU-hint evaluation and
	// PTE-serve continuations the same way: both ride the page-walk path,
	// which is per-burst in steady state, not per-warmup.
	corrPool  mem.Pool[corrTxn]
	hintPool  mem.Pool[hintEval]
	servePool mem.Pool[pteServe]

	// att (nil when attribution is off) receives correlation-evaluation
	// machinery cycles — PCTc lookups are off the request critical path, so
	// their cost is reported separately rather than in any blame vector.
	att *attrib.Attrib

	stats Stats
}

// corrTxn carries one evaluateCorrelation across its PCTc lookup: the PCT
// snapshot (taken at trigger time, before the lookup latency) plus the
// continuation pre-bound to the record.
type corrTxn struct {
	p     *PageSeer
	page  mem.PPN
	kind  SwapKind
	snap  PCTEntry
	start uint64 // trigger cycle, for the attribution layer's machinery counter
	fn    func()
}

func (p *PageSeer) getCorrTxn() *corrTxn {
	t := p.corrPool.Get()
	if t == nil {
		t = &corrTxn{p: p}
		t.fn = func() { t.p.corrEvaluated(t) }
	}
	return t
}

func (p *PageSeer) putCorrTxn(t *corrTxn) {
	t.page, t.kind, t.snap, t.start = 0, 0, PCTEntry{}, 0
	p.corrPool.Put(t)
}

// hintEval carries one MMU hint through the PTE-line obtain: the fetch and
// ready continuations are pre-bound to a pooled record. fetchFn runs
// synchronously inside Obtain (line still valid); readyFn runs when the
// line is available and recycles the record before acting on the page.
type hintEval struct {
	p       *PageSeer
	line    mem.Addr
	page    mem.PPN
	fetchFn func(done func())
	readyFn func()
}

func (p *PageSeer) getHintEval() *hintEval {
	e := p.hintPool.Get()
	if e == nil {
		e = &hintEval{p: p}
		e.fetchFn = func(done func()) {
			// The PTE line lives in a page-table frame, which is pinned, so
			// no translation is needed; fetch it from DRAM (action 2,
			// Figure 3).
			e.p.issueLineDemand(e.line, done)
		}
		e.readyFn = func() {
			page := e.page
			pp := e.p
			pp.putHintEval(e)
			pp.RemapCache().Prefetch(uint64(page))
			pp.evaluateCorrelation(page, SwapPrefetchMMU)
		}
	}
	return e
}

func (p *PageSeer) putHintEval(e *hintEval) {
	e.line, e.page = 0, 0
	p.hintPool.Put(e)
}

// pteServe carries one intercepted PTE-line LLC miss (handlePTERequest)
// through the obtain, on the same pooled-record pattern as hintEval.
type pteServe struct {
	p         *PageSeer
	line      mem.Addr
	r         *hmc.Request
	driverHad bool
	fetchFn   func(done func())
	readyFn   func()
}

func (p *PageSeer) getPTEServe() *pteServe {
	s := p.servePool.Get()
	if s == nil {
		s = &pteServe{p: p}
		s.fetchFn = func(done func()) {
			s.p.issueLineDemand(s.line, done)
		}
		s.readyFn = func() {
			r, driverHad := s.r, s.driverHad
			pp := s.p
			pp.putPTEServe(s)
			src := obs.LatPTE
			if !driverHad {
				src = obs.LatDRAM // the fetch just issued was the memory access itself
			}
			pp.ctl.ServeDirect(r, src, pp.cfg.PTEServeLatency)
		}
	}
	return s
}

func (p *PageSeer) putPTEServe(s *pteServe) {
	s.line, s.r, s.driverHad = 0, nil, false
	p.servePool.Put(s)
}

// issueLineDemand is the shared demand-priority line fetch the pooled
// continuations bind to.
func (p *PageSeer) issueLineDemand(line mem.Addr, done func()) {
	p.ctl.IssueLine(line, false, memsim.PrioDemand, done)
}

// admission is the Swap Driver's request queue (modelling choice: Section
// III-D does not size it). The class is the SwapKind: prefetch swaps drain
// first, and the MMU hint upgrades a page the access-triggered path queued
// (they race for one page). Requests expire: converting a page whose flurry
// has ended wastes swap bandwidth a fresh request could use.
var admission = hmc.AdmitPolicy{Depth: 1024, Expiry: 60_000, Upgrade: true, Classes: kindNames}

// New installs a PageSeer manager on the controller. It reserves the
// DRAM-resident PRT and PCT regions, so it must be constructed before any
// workload pages are allocated.
func New(ctl *hmc.Controller, cfg Config) *PageSeer {
	p := &PageSeer{sim: ctl.Sim, ctl: ctl, cfg: cfg}
	p.Segments = hmc.NewSegments(ctl, "pageseer", mem.PageShift, cfg.PRTc(), cfg.PRTBytes, p.committed)
	hmc.NewAdmission(p.Segments, admission, p.startSwap, p.bandwidthOK, &p.stats.DeclinedQueue)
	p.pctc = ctl.NewMetaCache(cfg.PCTc(), ctl.AllocMetaRegion(cfg.PCTBytes, 11))
	// The PCT, the Filter index and both HPTs are indexed by page over the
	// frames the run can name, known once the footprint is mapped.
	ctl.OnSeal(func(pages uint64) {
		p.corr = NewCorrelator(cfg, pages, func(leader mem.PPN, effective bool) {
			if effective {
				p.pctc.MarkDirty(uint64(leader))
			}
		})
		p.hptDRAM = NewHPT(ctl.Sim, cfg.HPTDecayInterval, cfg.HPTEntries, cfg.CounterMax, pages)
		p.hptNVM = NewHPT(ctl.Sim, cfg.HPTDecayInterval, cfg.HPTEntries, cfg.CounterMax, pages)
	})
	p.pte = NewPTECache()
	// The same-color constraint is defined over logical PRT entry sets
	// (Figure 4), independent of the PRTc's physical line organisation.
	p.nColors = cfg.PRTcEntries / cfg.PRTcWays
	p.colorRR = make([]mem.PPN, p.nColors)
	ctl.SetManager(p)
	return p
}

// Name implements hmc.Manager.
func (p *PageSeer) Name() string {
	if p.cfg.NoCorr {
		return "PageSeer-NoCorr"
	}
	return "PageSeer"
}

// Stats returns a snapshot of the PageSeer counters.
func (p *PageSeer) Stats() Stats { return p.stats }

// PCTc returns the PCT cache (the PRTc is the core's RemapCache).
func (p *PageSeer) PCTc() *hmc.MetaCache { return p.pctc }

// HPTs returns the DRAM and NVM hot page tables.
func (p *PageSeer) HPTs() (dram, nvm *HPT) { return p.hptDRAM, p.hptNVM }

// Correlator exposes the PCT/Filter machinery.
func (p *PageSeer) Correlator() *Correlator { return p.corr }

// SetAttrib wires the cycle-attribution accumulator so correlation
// evaluations report their machinery cycles. nil disables (the default).
func (p *PageSeer) SetAttrib(a *attrib.Attrib) { p.att = a }

// PTEDriver exposes the MMU Driver's PTE-line cache.
func (p *PageSeer) PTEDriver() *PTECache { return p.pte }

// frameOf returns the frame currently holding page's data.
func (p *PageSeer) frameOf(page mem.PPN) mem.PPN { return mem.PPN(p.Loc(hmc.Seg(page))) }

// held reports whether a running swap holds frame.
func (p *PageSeer) held(frame mem.PPN) bool { return p.Busy(hmc.Seg(frame)) }

func (p *PageSeer) residentDRAM(page mem.PPN) bool {
	return p.ctl.Layout.IsDRAMPage(p.frameOf(page))
}

// HandleRequest implements hmc.Manager (flow of Section III-D1/D2).
func (p *PageSeer) HandleRequest(r *hmc.Request) {
	if r.Meta.IsPTE && !r.Meta.Writeback {
		p.handlePTERequest(r)
		return
	}
	page := mem.PageOf(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk {
		// Off-critical-path tracking: Filter/PCTc and the HPTs see the
		// pre-remap address in parallel with the PRTc lookup.
		p.trackMiss(r.Meta.PID, page)
	}
	// The PRTc stands on the critical path: the request cannot be routed
	// until the remap entry is available — so its lookup (and any PRT line
	// fetch) is exactly what the request's blame vector should see.
	p.Lookup(r, uint64(page))
}

// trackMiss updates the hot-page tables and the correlator, and evaluates
// swap triggers.
func (p *PageSeer) trackMiss(pid int, page mem.PPN) {
	if t := p.prefTracks.Ref(uint64(page)); t != nil {
		t.count++
	}
	if p.residentDRAM(page) {
		p.hptDRAM.Touch(page)
	} else {
		// Edge-triggered: the regular swap fires when the counter reaches
		// the threshold, not on every miss past it, so a saturated Swap
		// Driver is not flooded by re-requests from a single hot page. A
		// declined request re-arms the trigger: the page stays one miss
		// away from re-crossing.
		if c := p.hptNVM.Touch(page); c == p.cfg.HPTThreshold {
			if !p.requestSwap(page, SwapRegular, false) {
				p.hptNVM.Set(page, p.cfg.HPTThreshold-1)
			}
		}
	}
	if p.corr.OnMiss(pid, page) {
		// First miss of a new invocation: consult the PCTc (Section
		// III-C2 trigger point).
		p.evaluateCorrelation(page, SwapPrefetchPCT)
	}
}

// evaluateCorrelation checks page's PCT entry (paying PCTc timing) and
// requests prefetch swaps for the page and its follower when warranted.
// The MMU-triggered evaluation fetches at demand priority: the hint path's
// entire value is lead time over the replayed access.
func (p *PageSeer) evaluateCorrelation(page mem.PPN, kind SwapKind) {
	t := p.getCorrTxn()
	t.page, t.kind, t.start = page, kind, p.sim.Now()
	t.snap = p.corr.Snapshot(page)
	if kind == SwapPrefetchMMU {
		p.pctc.AccessUrgent(uint64(page), t.fn)
		return
	}
	p.pctc.Access(uint64(page), false, nil, t.fn)
}

func (p *PageSeer) corrEvaluated(t *corrTxn) {
	page, kind, snap := t.page, t.kind, t.snap
	if p.att != nil {
		p.att.CorrEval(p.sim.Now() - t.start)
	}
	p.putCorrTxn(t)
	if snap.Count >= p.cfg.PCTThreshold && !p.residentDRAM(page) {
		p.requestSwap(page, kind, false)
	}
	if p.cfg.NoCorr || !snap.HasFollower {
		return
	}
	if snap.FollowerCount >= p.cfg.PCTThreshold {
		// The follower will be prefetched: start loading its metadata
		// early (Section V-B factor three — the earlier the PRTc entry
		// is fetched, the better).
		p.RemapCache().Prefetch(uint64(snap.Follower))
		p.pctc.Prefetch(uint64(snap.Follower))
		if !p.residentDRAM(snap.Follower) {
			p.requestSwap(snap.Follower, kind, true)
		}
	}
}

// MMUHint implements hmc.Manager (Figure 3): obtain the PTE line, learn the
// page, prefetch its metadata, and possibly start MMU-triggered swaps.
func (p *PageSeer) MMUHint(h mmu.Hint) {
	p.stats.HintsReceived++
	e := p.getHintEval()
	e.line, e.page = h.PTELine, h.LeafPPN
	p.pte.Obtain(h.PTELine, e.fetchFn, e.readyFn)
}

// handlePTERequest intercepts LLC misses for PTE lines (Section III-D2).
// Resident lines and lines with an in-flight hint fetch count as served by
// the MMU Driver; a true miss pays a memory access and fills the cache.
func (p *PageSeer) handlePTERequest(r *hmc.Request) {
	line := mem.LineOf(r.Line)
	s := p.getPTEServe()
	s.line, s.r = line, r
	s.driverHad = p.pte.Contains(line) || p.pte.Pending(line)
	p.pte.Obtain(line, s.fetchFn, s.readyFn)
}

// requestSwap asks the Swap Driver's admission stage to move page (an
// NVM-resident page) to DRAM; follower marks a correlation-follower request
// for the ledger's trigger taxonomy. It reports whether the request was
// accepted (false: declined by the bandwidth heuristic or the queue bound
// — the trigger may re-arm).
func (p *PageSeer) requestSwap(page mem.PPN, kind SwapKind, follower bool) bool {
	if p.residentDRAM(page) || p.held(page) {
		return true
	}
	return p.Submit(hmc.Ask{Unit: hmc.Seg(page), Class: int(kind), Arg: follower}) != hmc.Declined
}

// bandwidthOK, the admission gate, is the Section V-B heuristic: decline
// swaps when the DRAM channels are saturated and a large share of
// main-memory requests is already served from fast memory — moving more
// pages then costs demand bandwidth without proportionate benefit.
// Saturation is a windowed data-bus utilization, not an instantaneous
// queue depth, so bursty memory-level parallelism does not pass for it.
func (p *PageSeer) bandwidthOK() bool {
	st := p.ctl.Stats()
	if !p.cfg.BWOpt || st.DataDemand == 0 {
		return true
	}
	fast := float64(st.ServedDRAM+st.ServedBuf) / float64(st.DataDemand)
	if fast <= p.cfg.BWSatFraction || p.dramUtilization() < p.cfg.BWSatUtil {
		return true
	}
	p.stats.DeclinedBW++
	return false
}

// dramUtilization returns the DRAM data-bus utilization over the previous
// measurement window (lazily refreshed).
func (p *PageSeer) dramUtilization() float64 {
	now := p.sim.Now()
	win := p.cfg.BWUtilWindow
	if win == 0 {
		win = 50_000
	}
	if now-p.utilCheckedAt >= win {
		busy := p.ctl.DRAM.BusBusy()
		if elapsed := now - p.utilCheckedAt; elapsed > 0 {
			p.utilRecent = float64(busy-p.utilLastBusy) /
				(float64(elapsed) * float64(p.ctl.DRAM.Channels()))
		}
		p.utilCheckedAt = now
		p.utilLastBusy = busy
	}
	return p.utilRecent
}

// color returns the PRT set a page maps to; only same-color pages swap
// (Figure 4).
func (p *PageSeer) color(page mem.PPN) int { return int(uint64(page) % uint64(p.nColors)) }

// pickVictim finds a DRAM frame of the given color to host an incoming NVM
// page. Candidates rank: an unlocked (HPT-cold) frame beats a locked one,
// a colder resident beats a hotter one, and unswapped beats swapped (a
// plain 2R/2W exchange beats the 3R/3W optimized slow swap). Frames that
// are pinned or mid-swap are never eligible. When every candidate
// is warm, the least-hot resident is evicted — declining outright would
// strand the hot NVM page, and ranking residents is what the DRAM HPT's
// counters exist for.
func (p *PageSeer) pickVictim(color int) (frame mem.PPN, ok bool) {
	dramPages := mem.PPN(p.ctl.Layout.DRAMPages())
	start := p.colorRR[color]
	if start == 0 || start >= dramPages {
		start = mem.PPN(color)
	}

	best := mem.PPN(0)
	bestScore := ^uint64(0)
	found := false

	// Visit each of the color's DRAM frames once. At small scales colors
	// can outnumber DRAM frames, leaving a color none, and so no victim.
	f := start
	for i := mem.PPN(0); mem.PPN(color)+i*mem.PPN(p.nColors) < dramPages; i++ {
		if f >= dramPages {
			f = mem.PPN(color)
		}
		if !p.ctl.Pinned(f) && !p.held(f) {
			resident := p.frameOf(f) // pairs are symmetric: f holds the data of the page it maps to
			if !p.held(resident) {
				score := uint64(p.hptDRAM.Count(resident)) << 1
				if resident != f {
					score++
				}
				if score == 0 {
					// Ideal victim: cold and unswapped.
					p.colorRR[color] = f + mem.PPN(p.nColors)
					return f, true
				}
				if score < bestScore {
					best, bestScore = f, score
					found = true
				}
			}
		}
		f += mem.PPN(p.nColors)
	}
	if found {
		p.colorRR[color] = best + mem.PPN(p.nColors)
		return best, true
	}
	return 0, false
}

// plan chooses how page comes to DRAM. A DRAM-original page whose data an
// earlier swap pushed to NVM, and which has become hot again, restores the
// pair to its original frames (the PRT design's only legal move), unless
// its partner is hot in DRAM or mid-swap. Any other page moves into a
// victim frame of its color: a plain exchange when the frame holds its own
// data, the optimized slow swap (Figure 5) when the frame holds a partner's,
// which then returns home while the frame's own data rides a swap buffer to
// page's slot. ok is false when no move is legal.
func (p *PageSeer) plan(page mem.PPN) (shape int, dst mem.PPN, ok bool) {
	if partner := p.frameOf(page); partner != page {
		return hmc.Restore, page, !p.hptDRAM.Contains(partner) && !p.held(partner)
	}
	frame, ok := p.pickVictim(p.color(page))
	if ok && p.frameOf(frame) != frame {
		return hmc.Slow, frame, true
	}
	return hmc.Pair, frame, ok
}

// startSwap, the admission stage's start, launches the swap bringing q's
// page to DRAM, recording q.At (the enqueue cycle) in its provenance.
func (p *PageSeer) startSwap(q hmc.Ask) int {
	page, kind := mem.PPN(q.Unit), SwapKind(q.Class)
	if p.residentDRAM(page) || p.held(page) {
		return hmc.NoMove
	}
	shape, dst, ok := p.plan(page)
	if !ok {
		p.stats.DeclinedNoVictim++
		return hmc.NoMove
	}
	if shape == hmc.Slow {
		p.stats.OptimizedSlow++
	}
	if p.Start(hmc.Move{
		Shape: shape, Data: q.Unit, Dst: hmc.Seg(dst), Key: uint64(page), Tag: q.Class,
		Why: swapIdentity(shape, kind, q.Arg.(bool), q.At),
	}) != hmc.Exchanged {
		return hmc.Queued // raced with another start: wait again
	}
	p.stats.SwapsStarted[kind]++
	return hmc.Exchanged
}

// settle restarts hot-page tracking after a commit moved page's data into
// DRAM and victim's out: page's NVM count is spent. A victim that goes
// home — a restore's or a slow swap's partner — closes its prefetch
// accuracy window, and a slow swap's partner drops its NVM count too.
func (p *PageSeer) settle(shape int, page, victim mem.PPN) {
	if shape != hmc.Pair {
		p.finalizeTrack(victim)
	}
	p.hptNVM.Remove(page)
	if shape == hmc.Slow {
		p.hptNVM.Remove(victim)
	}
}

// committed is the exchange core's commit hook: the swap of m's page is
// architecturally visible, and a swap buffer is free for the next request.
func (p *PageSeer) committed(m hmc.Move) {
	page, kind := mem.PPN(m.Data), SwapKind(m.Tag)
	p.settle(m.Shape, page, mem.PPN(m.Victim))
	p.stats.SwapsCompleted[kind]++
	if m.Shape != hmc.Restore && kind != SwapRegular {
		p.stats.PrefetchTracked++
		p.prefTracks.Put(uint64(page), prefTrack{kind: kind})
	}
}

// finalizeTrack closes the accuracy window for a page leaving DRAM.
func (p *PageSeer) finalizeTrack(page mem.PPN) {
	if t, ok := p.prefTracks.Del(uint64(page)); ok {
		p.closeTrack(t)
	}
}

// closeTrack scores one closed accuracy window.
func (p *PageSeer) closeTrack(t prefTrack) {
	if t.count >= p.cfg.AccuracyTarget {
		p.stats.PrefetchAccurate++
	}
}

// Finish flushes end-of-run state: the Filter folds into the PCT and all
// open prefetch-accuracy windows close. Call once before reading stats.
func (p *PageSeer) Finish() {
	p.corr.Flush()
	p.prefTracks.Each(func(_ uint64, t prefTrack) { p.closeTrack(t) })
	p.prefTracks.Clear()
}

// PrefetchAccuracy returns Figure 9's metric: the fraction of prefetch
// swaps whose page earned at least AccuracyTarget DRAM accesses.
func (p *PageSeer) PrefetchAccuracy() float64 {
	if p.stats.PrefetchTracked == 0 {
		return 1
	}
	return float64(p.stats.PrefetchAccurate) / float64(p.stats.PrefetchTracked)
}

// SwappedPages returns the number of page pairs currently exchanged.
func (p *PageSeer) SwappedPages() int { return p.Remap().Moved() / 2 }

// DumpState formats a short diagnostic summary.
func (p *PageSeer) DumpState() string {
	return fmt.Sprintf("%s: %d pairs swapped, %d in flight, %d pending, swaps=%v",
		p.Name(), p.SwappedPages(), p.ctl.Engine.Busy(), p.Pending(), p.stats.SwapsCompleted)
}

// Audit reports end-of-run invariant violations against the manager's
// architectural state. It assumes quiescence after Finish: no swaps in
// flight, every remapped page in a symmetric DRAM<->NVM pair that leaves
// page tables alone, all prefetch-accuracy windows closed and no PTE-line
// fetch in flight. The swap engine's audit covers the Swap Driver's queue.
func (p *PageSeer) Audit(a *check.Audit) {
	p.pte.Audit(a)
	a.Checkf(p.prefTracks.Len() == 0,
		"pageseer: %d prefetch-accuracy window(s) still open after Finish", p.prefTracks.Len())
	layout := p.ctl.Layout
	for d := uint64(0); d < p.Remap().Units(); d++ {
		page, frame := mem.PPN(d), p.frameOf(mem.PPN(d))
		if frame == page {
			continue
		}
		if back := p.frameOf(frame); back != page {
			a.Violationf("pageseer: remap asymmetric: remap[%#x]=%#x but remap[%#x]=%#x",
				uint64(page), uint64(frame), uint64(frame), uint64(back))
			continue // the pair checks below would double-report
		}
		if layout.IsDRAM(page.Addr()) == layout.IsDRAM(frame.Addr()) {
			a.Violationf("pageseer: remap pair %#x<->%#x does not cross the DRAM/NVM boundary",
				uint64(page), uint64(frame))
		}
		if p.ctl.OS.IsPageTable(page) || p.ctl.OS.IsPageTable(frame) {
			a.Violationf("pageseer: remap pair %#x<->%#x involves a pinned page-table frame",
				uint64(page), uint64(frame))
		}
	}
}

// ResetStats zeroes the PageSeer counters; Controller.ResetStats calls it
// after warm-up, with the metadata caches'. Trained state — PCT history,
// HPT counters, remappings — is deliberately kept.
func (p *PageSeer) ResetStats() {
	p.stats = Stats{}
	p.prefTracks.Clear()
}
