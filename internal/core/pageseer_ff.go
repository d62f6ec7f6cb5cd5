package core

import (
	"pageseer/internal/cache"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
)

// This file is PageSeer's functional fast-forward path (sampled simulation,
// sim.Config.Sample): the same architectural decisions as the detailed
// handlers — hot-page counting, correlation training, metadata-cache
// residency, swap commits — applied immediately with no events, no timing,
// and no statistics. Swaps commit instantly (ffSwap) through the exchange
// core's Apply, with the same placements as a detailed commit, so
// VerifyIntegrity and the end-of-run audits hold across fast-forward gaps.
// Two modelling choices are deliberate: the bandwidth heuristic and the
// swap queue are skipped (both describe transient contention that does not
// exist on a quiesced, clock-frozen machine), and HPT decay does not
// advance (it keys on the engine clock, which fast-forward freezes).

// SetFFSwapBudget bounds how many swaps the functional fast-forward path
// may commit before the next detailed phase; the sampled scheduler sets it
// per gap from the NVM bus's structural swap throughput.
func (p *PageSeer) SetFFSwapBudget(n uint64) { p.ffBudget = n }

// FFSwapCommits returns the cumulative count of swaps the fast-forward path
// has committed. The sampled scheduler differences it per gap: fast-forward
// commits are invisible to the timed statistics (ffSwap skips them by
// design), yet they are real swap activity the sampled swap-rate estimate
// must include.
func (p *PageSeer) FFSwapCommits() uint64 { return p.ffCommits }

// FFAdvance credits the hot page tables with virtual elapsed time. The engine
// clock freezes during fast-forward, so the lazy clock-keyed decay never
// fires there; the sampled scheduler estimates each gap's cycle span from
// its calibrated IPC and passes it here, and every full decay interval
// crossed applies one counter-halving pass to both tables. Without this,
// re-armed swap triggers that a real machine would let cool stay hot across
// every gap and replay as a spurious swap backlog in the next window.
func (p *PageSeer) FFAdvance(cycles uint64) {
	if p.cfg.HPTDecayInterval == 0 {
		return
	}
	p.ffVirtual += cycles
	for p.ffVirtual >= p.cfg.HPTDecayInterval {
		p.ffVirtual -= p.cfg.HPTDecayInterval
		p.hptDRAM.DecayOnce()
		p.hptNVM.DecayOnce()
	}
}

// HandleRequestFunctional implements hmc.FunctionalManager.
func (p *PageSeer) HandleRequestFunctional(line mem.Addr, write bool, meta cache.Meta) {
	if meta.IsPTE && !meta.Writeback {
		// The MMU Driver intercepts leaf-PTE misses; functionally that is
		// just residency in its PTE-line cache.
		p.pte.insert(mem.LineOf(line))
		return
	}
	page := mem.PageOf(line)
	if !meta.Writeback && !meta.PageWalk {
		p.trackMissFunctional(meta.PID, page)
	}
	p.RemapCache().AccessFunctional(uint64(page), false)
}

// MMUHintFunctional implements mmu.FunctionalHinter: warm the PTE-line
// cache and the hinted page's metadata, and evaluate MMU-triggered swaps.
func (p *PageSeer) MMUHintFunctional(h mmu.Hint) {
	p.pte.insert(mem.LineOf(h.PTELine))
	p.RemapCache().AccessFunctional(uint64(h.LeafPPN), false)
	p.evaluateCorrelationFunctional(h.LeafPPN, SwapPrefetchMMU)
}

// trackMissFunctional mirrors trackMiss with instant-commit swaps.
func (p *PageSeer) trackMissFunctional(pid int, page mem.PPN) {
	if t := p.prefTracks.Ref(uint64(page)); t != nil {
		t.count++
	}
	if p.residentDRAM(page) {
		p.hptDRAM.Touch(page)
	} else {
		if c := p.hptNVM.Touch(page); c == p.cfg.HPTThreshold {
			if !p.ffSwap(page, SwapRegular) {
				p.hptNVM.Set(page, p.cfg.HPTThreshold-1)
			}
		}
	}
	if p.corr.OnMiss(pid, page) {
		p.evaluateCorrelationFunctional(page, SwapPrefetchPCT)
	}
}

// evaluateCorrelationFunctional mirrors evaluateCorrelation/corrEvaluated
// without the PCTc lookup latency: the snapshot is taken, the PCTc residency
// warmed, and swap decisions applied immediately.
func (p *PageSeer) evaluateCorrelationFunctional(page mem.PPN, kind SwapKind) {
	snap := p.corr.Snapshot(page)
	p.pctc.AccessFunctional(uint64(page), false)
	if snap.Count >= p.cfg.PCTThreshold && !p.residentDRAM(page) {
		p.ffSwap(page, kind)
	}
	if p.cfg.NoCorr || !snap.HasFollower {
		return
	}
	if snap.FollowerCount >= p.cfg.PCTThreshold {
		p.RemapCache().AccessFunctional(uint64(snap.Follower), false)
		p.pctc.AccessFunctional(uint64(snap.Follower), false)
		if !p.residentDRAM(snap.Follower) {
			p.ffSwap(snap.Follower, kind)
		}
	}
}

// ffSwap commits a page -> DRAM swap instantly: the same plan and the same
// architectural mutations as startSwap and its commit, minus engine
// choreography, ledger records, timing, and statistics. It reports whether
// the swap happened, so edge-triggered callers can re-arm on decline.
func (p *PageSeer) ffSwap(page mem.PPN, kind SwapKind) bool {
	if p.residentDRAM(page) {
		return true
	}
	// The swap budget stands in for everything that throttles swaps on the
	// detailed machine — swap-engine occupancy, the queue bound, and above
	// all the bandwidth heuristic (none of which can be evaluated on a
	// frozen clock). Committing every trigger for free would hand the next
	// window a far richer DRAM placement than the bandwidth-limited
	// detailed machine ever reaches. The budget is set per gap by the
	// sampled scheduler from the swap rate the detailed phases actually
	// sustained (see sim.runSampled).
	if p.ffBudget == 0 {
		return false
	}
	shape, dst, ok := p.plan(page)
	if !ok {
		return false
	}
	p.ffBudget--
	p.ffCommits++
	victim := mem.PPN(p.Owner(hmc.Seg(dst)))
	p.Apply(shape, hmc.Seg(page), hmc.Seg(dst))
	p.settle(shape, page, victim)
	if shape == hmc.Restore {
		return true
	}
	p.RemapCache().AccessFunctional(uint64(page), false)
	if kind != SwapRegular {
		// Open the accuracy window architecturally; the tracked/accurate
		// counters stay silent, and resetStats clears open windows before
		// any measurement starts.
		p.prefTracks.Put(uint64(page), prefTrack{kind: kind})
	}
	return true
}
