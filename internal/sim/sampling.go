package sim

import (
	"fmt"
	"math"

	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/obs"
	"pageseer/internal/obs/ledger"
)

// Sampled execution (Config.Sample): SMARTS-style interval sampling. The
// measured region (InstrPerCore per core) is divided into Sample equal
// strides, each running as
//
//	[ functional fast-forward gap | SampleWarmup detailed warm-up | SampleWindow detailed window ]
//
// where window 0's detailed warm-up is carved from the tail of the global
// Warmup (the rest of which fast-forwards) so the windows tile exactly the
// region the detailed schedule measures — sampling inside the warm-up region
// would bias IPC toward the pre-touch placement's early DRAM hits.
//
// The fast-forward gap retires instructions with no events, no timing, and
// no statistics, but keeps every piece of architectural state warm through
// the components' *Functional paths: TLB and page-walk-cache fills, page
// walks, cache tag/LRU/dirty state at all three levels, metadata-cache
// residency, hot-page and correlation training, and the DRAM/NVM remap
// itself (swaps commit instantly, so VerifyIntegrity holds across gaps).
// The detailed warm-up then re-establishes timing-dependent transients
// (queue occupancy, in-flight swap traffic, row-buffer state) before the
// window measures; its statistics are discarded by resetStats.
//
// Results are the sum of the window measurements: counters add, ratio
// metrics (IPC, AMMAT, SwapsPerKI, accuracy, coverage) are recomputed over
// the summed counters, and latency distributions merge their log2
// histograms. Results.Sampling carries the geometry, the extrapolation
// factor to full-run magnitude, and the per-window IPC dispersion (the
// coefficient of variation SMARTS uses as its confidence proxy).

// SamplingStats describes a sampled run's geometry and measurement quality.
// Like Results.Watchdog it describes the measurement apparatus, not the
// simulated machine, so result-identity tests compare it separately.
type SamplingStats struct {
	// Windows, WindowInstr, WarmupInstr echo Config.Sample,
	// Config.SampleWindow, Config.SampleWarmup.
	Windows     uint64
	WindowInstr uint64
	WarmupInstr uint64

	// FastForwarded counts instructions retired functionally (total across
	// cores); Discarded counts detailed-but-unmeasured warm-up instructions.
	FastForwarded uint64
	Discarded     uint64

	// Extrapolation scales window-summed counters up to full-run magnitude:
	// (InstrPerCore x cores) / measured instructions.
	Extrapolation float64

	// Per-window aggregate-IPC dispersion. IPCCV is the coefficient of
	// variation (population stddev / mean): the SMARTS confidence proxy the
	// sample-smoke gate audits.
	MeanIPC float64
	IPCCV   float64
	MinIPC  float64
	MaxIPC  float64
}

// ffCalibrationProbe is the per-core length of the detailed calibration
// probe runSampled executes at the very start of a sampled run (clamped to
// the fast-forwarded part of the warm-up, so the degenerate geometry runs
// none). It exists solely to seed the fast-forward swap budget's rate
// estimate before any window has run.
const ffCalibrationProbe = 2_000

// runSampled executes the sampled schedule. Panics are recovered by Run's
// deferred handler; the watchdog (if armed) rides the detailed phases and
// sees no ticks during fast-forward (the clock is frozen there, so a gap can
// never look like a stall).
func (s *System) runSampled() (Results, error) {
	cfg := &s.Cfg
	stride := cfg.InstrPerCore / cfg.Sample
	var gap uint64
	if cfg.Sample > 1 {
		// Validated: warmup+window fit the stride. (With a single window
		// there is no later gap, and the expression could underflow.)
		gap = stride - cfg.SampleWarmup - cfg.SampleWindow
	}
	nCores := uint64(len(s.Cores))

	// Fast-forward swap budget: each gap caps the free instant commits at
	// the swap throughput the NVM bus could physically sustain over the
	// gap's virtual duration. A 4KB swap moves LinesPerPage lines each way
	// across the NVM channels, so the structural ceiling is
	//
	//	swaps/cycle = (Channels / (BurstMemCycles x ClockRatio)) / (2 x LinesPerPage)
	//
	// and measured bursts on the detailed machine complete within a couple
	// of percent of it (the bandwidth heuristic declines the excess). Below
	// the ceiling commits are demand-limited, not bandwidth-limited, and
	// the budget never binds — quiet regions fast-forward unchanged. The
	// gap's virtual cycle count comes from the aggregate IPC every detailed
	// phase (probe, warm-ups, windows) keeps calibrated.
	nvmCfg := memsim.NVMConfig()
	swapsPerCycle := float64(nvmCfg.Channels) /
		float64(nvmCfg.BurstMemCycles*nvmCfg.ClockRatio) / float64(2*mem.LinesPerPage)
	var calInstr, calCycles, obsSwaps uint64
	detailedPhase := func(n uint64, drain bool) {
		if n == 0 {
			return
		}
		i0, c0, w0 := s.totalInstructions(), s.Sim.Now(), s.completedSwaps()
		s.runPhaseOpt(n, drain)
		calInstr += s.totalInstructions() - i0
		calCycles += s.Sim.Now() - c0
		obsSwaps += s.completedSwaps() - w0
	}
	// ffGap fast-forwards one gap under the structural swap budget, crediting
	// the hot page tables with the gap's virtual time in quarter-gap chunks
	// so trigger decay interleaves with execution rather than arriving as one
	// end-of-gap cliff.
	ffGap := func(g uint64) {
		if g == 0 {
			return
		}
		if s.PageSeer == nil {
			s.fastForward(g)
			return
		}
		budget := ^uint64(0)
		ipc := 0.0
		if calInstr > 0 && calCycles > 0 {
			ipc = float64(calInstr) / float64(calCycles)
			// The structural ceiling is the right cap, but once detailed
			// phases have observed actual swap completions, their measured
			// rate is the better estimate: it folds in everything that
			// throttles the detailed machine below the bus bound — above all
			// the bandwidth heuristic, which declines most triggers while
			// demand traffic saturates the DRAM bus. An uncapped gap would
			// commit the whole trigger backlog early and hand later windows
			// an unrealistically quiet machine.
			rate := swapsPerCycle
			if obsSwaps > 0 {
				if r := float64(obsSwaps) / float64(calCycles); r < rate {
					rate = r
				}
			}
			budget = uint64(rate*float64(g*nCores)/ipc + 0.5)
		}
		s.PageSeer.SetFFSwapBudget(budget)
		if ipc > 0 {
			chunk := (g + 3) / 4
			for done := uint64(0); done < g; {
				n := min(chunk, g-done)
				s.fastForward(n)
				s.PageSeer.FFAdvance(uint64(float64(n*nCores)/ipc + 0.5))
				done += n
			}
		} else {
			s.fastForward(g)
		}
	}
	probe := uint64(ffCalibrationProbe)
	if headroom := cfg.Warmup - cfg.SampleWarmup; probe > headroom {
		probe = headroom
	}
	detailedPhase(probe, true)

	var (
		ffTotal uint64 // fast-forwarded instructions per core
		swaps   uint64 // region-wide swap count for the SwapsPerKI estimate
		sumIPC  float64
		sumIPC2 float64
		minIPC  = math.Inf(1)
		maxIPC  = math.Inf(-1)
		merged  Results
	)
	for w := uint64(0); w < cfg.Sample; w++ {
		g := gap
		if w == 0 {
			g = cfg.Warmup - cfg.SampleWarmup - probe
		}
		ffTotal += g
		var ffc0 uint64
		if s.PageSeer != nil {
			ffc0 = s.PageSeer.FFSwapCommits()
		}
		ffGap(g)
		if w > 0 && s.PageSeer != nil {
			// Gaps after window 0 lie inside the measured region: their
			// fast-forward commits are real swap activity the sampled
			// swap-rate estimate must include. Window 0's gap is the global
			// warm-up, which the detailed reference excludes too.
			swaps += s.PageSeer.FFSwapCommits() - ffc0
		}
		// Window 0's warm-up is the global warm-up's tail: drain it so the
		// measured epoch opens on the same quiesced boundary the detailed
		// schedule's resetStats sees (the degenerate geometry reduces to it
		// byte for byte). Later warm-ups chain into their window undrained,
		// so the window opens under the queue occupancy and in-flight swap
		// traffic the warm-up built up.
		k0 := s.completedSwaps()
		detailedPhase(cfg.SampleWarmup, w == 0)
		if w > 0 {
			swaps += s.completedSwaps() - k0
		}
		s.resetStats()
		if w == 0 && s.Timeline != nil {
			// Armed across all windows: the timeline is cycle-indexed and
			// the clock only advances in detailed phases, so gaps are
			// invisible; later window warm-ups do appear in its samples.
			s.Timeline.Start()
			s.Sim.SetTick(s.Timeline.Every, s.Timeline.Tick)
		}
		start := s.Sim.Now()
		firedStart := s.Sim.Fired()
		detailedPhase(cfg.SampleWindow, true)
		if w == cfg.Sample-1 {
			// Close open accounting exactly once, before the last window's
			// collect — the same order the detailed schedule uses, so the
			// degenerate geometry reproduces its Results byte-for-byte.
			if s.PageSeer != nil {
				s.PageSeer.Finish()
			}
			if s.Timeline != nil {
				s.Sim.SetTick(0, nil)
				s.Timeline.Finish()
			}
		}
		r := s.collect(start)
		r.EventsFired = s.Sim.Fired() - firedStart
		swaps += s.completedSwaps()
		ipc := r.IPC
		sumIPC += ipc
		sumIPC2 += ipc * ipc
		minIPC = math.Min(minIPC, ipc)
		maxIPC = math.Max(maxIPC, ipc)
		if w == 0 {
			merged = r
		} else {
			mergeWindow(&merged, r)
		}
	}
	if cfg.Sample > 1 {
		// Fast-forward the tail after the last window (the detailed schedule
		// runs to InstrPerCore; the windows tile only up to the last window's
		// end), so the swap-rate estimate below covers the whole measured
		// region — a burst falling inside the windows would otherwise be
		// divided by a shorter region and read as a higher rate. Finish ran
		// before the last collect (mirroring the detailed order); re-run it
		// so accuracy windows the tail opened are closed again for the audit.
		if tail := stride - cfg.SampleWindow; tail > 0 {
			var ffc0 uint64
			if s.PageSeer != nil {
				ffc0 = s.PageSeer.FFSwapCommits()
			}
			ffGap(tail)
			ffTotal += tail
			if s.PageSeer != nil {
				swaps += s.PageSeer.FFSwapCommits() - ffc0
				s.PageSeer.Finish()
			}
			// Every mid-run gap is followed by a resetStats before its
			// window, which discards the functional path's one-sided counts
			// (instructions retire with no timed L1/memory activity). The
			// tail needs the same discard or the end-of-run conservation
			// audits would compare mismatched halves; merged Results were
			// already collected, so nothing measured is lost.
			s.resetStats()
		}
		// Swap-rate estimate: unlike the per-window counters above, swap
		// activity is observed across the WHOLE measured region —
		// fast-forward commits in the gaps and the tail plus timed
		// completions over each contiguous warm-up+window span (both ends
		// quiesced, so no swap crosses a span boundary). Dividing by the
		// full region gives a full-run-comparable rate with no window
		// extrapolation, so burstiness between windows does not alias into
		// the estimate. With a single window the measured span is the whole
		// region and collect's own rate already is the estimate.
		merged.SwapsPerKI = float64(swaps) / (float64(cfg.InstrPerCore*nCores) / 1000)
	}
	if err := s.Ctl.VerifyIntegrity(); err != nil {
		return Results{}, s.failRun(fmt.Errorf("sim: integrity check failed after run: %w", err), nil)
	}
	if cfg.Audit {
		if err := s.CheckInvariants(); err != nil {
			return Results{}, s.failRun(err, nil)
		}
	}

	n := float64(cfg.Sample)
	mean := sumIPC / n
	variance := sumIPC2/n - mean*mean
	if variance < 0 {
		variance = 0 // float cancellation on near-identical windows
	}
	cv := 0.0
	if mean > 0 {
		cv = math.Sqrt(variance) / mean
	}
	measured := merged.Instructions
	extrap := 0.0
	if measured > 0 {
		extrap = float64(cfg.InstrPerCore*nCores) / float64(measured)
	}
	merged.Sampling = SamplingStats{
		Windows:       cfg.Sample,
		WindowInstr:   cfg.SampleWindow,
		WarmupInstr:   cfg.SampleWarmup,
		FastForwarded: ffTotal * nCores,
		Discarded:     (cfg.SampleWarmup*cfg.Sample + probe) * nCores,
		Extrapolation: extrap,
		MeanIPC:       mean,
		IPCCV:         cv,
		MinIPC:        minIPC,
		MaxIPC:        maxIPC,
	}
	return merged, nil
}

// fastForward retires `instr` additional instructions per core functionally.
// Cores interleave by least progress (ties to the lowest index), one access
// per step, so the generators and shared state — caches, hot-page tables,
// the remap — see a fair round-robin approximating concurrent detailed
// execution. Per-core overshoot matches pump's semantics: the final access
// may carry the count past the target, and the surplus counts toward the
// next phase's cumulative budget. Allocates two small slices per call (one
// call per window), nothing per access.
func (s *System) fastForward(instr uint64) {
	if instr == 0 {
		return
	}
	n := len(s.Cores)
	var steps uint64
	if n == 1 {
		c := s.Cores[0]
		for done := uint64(0); done < instr; {
			if steps&abortCheckMask == 0 {
				s.checkAbort()
			}
			steps++
			done += c.StepFunctional()
		}
		return
	}
	prog := make([]uint64, n)
	for {
		if steps&abortCheckMask == 0 {
			s.checkAbort()
		}
		steps++
		best := -1
		for i := 0; i < n; i++ {
			if prog[i] < instr && (best < 0 || prog[i] < prog[best]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		prog[best] += s.Cores[best].StepFunctional()
	}
}

// mergeWindow folds window result b into the accumulated a. Counters sum;
// ratio metrics are recomputed over the summed counters with exactly the
// formulas collect's sources use (hmc.Controller.AMMAT,
// PageSeer.PrefetchAccuracy, ledger.Summary), so a sampled run's derived
// fields relate to its counters the same way a detailed run's do. SwapsPerKI
// is recomputed by the caller, which tracks the raw swap count. Faults and
// Watchdog read cumulative never-reset sources, so the latest window's
// snapshot already covers the whole run. TestMergeWindowCoversResults pins
// this routine against the Results field list.
func mergeWindow(a *Results, b Results) {
	a.Cycles += b.Cycles
	a.Instructions += b.Instructions
	if a.Cycles > 0 {
		a.IPC = float64(a.Instructions) / float64(a.Cycles)
	}
	a.Ctl.Add(b.Ctl)
	a.Swap.Add(b.Swap)
	a.DRAM.Add(b.DRAM)
	a.NVM.Add(b.NVM)
	a.MMU.Add(b.MMU)
	if a.Ctl.Demand > 0 {
		a.AMMAT = float64(a.Ctl.LatencyTotal) / float64(a.Ctl.Demand)
	}
	for i := range a.LatencyHist.H {
		a.LatencyHist.H[i].Merge(b.LatencyHist.H[i])
	}
	a.Latency = a.LatencyHist.Summary()
	a.RemapCache.Add(b.RemapCache)
	a.PS.Add(b.PS)
	a.PCTc.Add(b.PCTc)
	if a.PS.PrefetchTracked == 0 {
		a.PrefetchAccuracy = b.PrefetchAccuracy // non-PageSeer schemes: both 0
	} else {
		a.PrefetchAccuracy = float64(a.PS.PrefetchAccurate) / float64(a.PS.PrefetchTracked)
	}
	a.EventsFired += b.EventsFired
	mergeLedgerSummary(&a.Effectiveness, b.Effectiveness)
	a.CPIStack.Add(b.CPIStack)
	// The pagemap accumulates across the whole run (it is reset once, at the
	// first window's resetStats, never per window), so each window's digest
	// is already cumulative — the latest snapshot covers the run.
	a.PageMap = b.PageMap
	a.Faults = b.Faults
	a.Watchdog = b.Watchdog
}

// mergeLedgerSummary folds window digest b into a: counts add, Accuracy and
// Coverage are recomputed with ledger.Summary's formulas, and the lead-time
// distribution is rebuilt from the merged log2 buckets. The rebuilt
// histogram's Sum is recovered from the two means (Mean = Sum/Count), exact
// up to float rounding; percentiles and Max need only the buckets.
func mergeLedgerSummary(a *ledger.Summary, b ledger.Summary) {
	for t := range a.Started {
		a.Started[t] += b.Started[t]
		a.Useful[t] += b.Useful[t]
		a.Unused[t] += b.Unused[t]
		a.Open[t] += b.Open[t]
	}
	a.Late += b.Late
	a.DemandTotal += b.DemandTotal
	a.DemandCovered += b.DemandCovered
	a.WastedDRAMBytes += b.WastedDRAMBytes
	a.WastedNVMBytes += b.WastedNVMBytes
	a.Accuracy = 0
	if tot := a.TotalStarted(); tot > 0 {
		a.Accuracy = float64(a.TotalUseful()) / float64(tot)
	}
	a.Coverage = 0
	if a.DemandTotal > 0 {
		a.Coverage = float64(a.DemandCovered) / float64(a.DemandTotal)
	}
	var h obs.Histogram
	for i := range a.LeadTimeLog2 {
		a.LeadTimeLog2[i] += b.LeadTimeLog2[i]
		h.Counts[i] = a.LeadTimeLog2[i]
	}
	h.Count = a.LeadTime.Count + b.LeadTime.Count
	h.Sum = uint64(math.Round(a.LeadTime.Mean*float64(a.LeadTime.Count) + b.LeadTime.Mean*float64(b.LeadTime.Count)))
	h.Max = a.LeadTime.Max
	if b.LeadTime.Max > h.Max {
		h.Max = b.LeadTime.Max
	}
	a.LeadTime = h.Summary()
}
