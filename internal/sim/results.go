package sim

import (
	"pageseer/internal/check"
	"pageseer/internal/core"
	"pageseer/internal/hmc"
	"pageseer/internal/memsim"
	"pageseer/internal/mmu"
	"pageseer/internal/obs"
	"pageseer/internal/obs/attrib"
	"pageseer/internal/obs/ledger"
	"pageseer/internal/obs/pagemap"
)

// Results carries every measurement the paper's figures draw on, for one
// (workload, scheme) run.
type Results struct {
	Scheme   Scheme
	Workload string
	Cores    int

	// Cycles is the measured-epoch duration (max over cores).
	Cycles       uint64
	Instructions uint64  // total across cores
	IPC          float64 // aggregate: total instructions / epoch cycles

	Ctl  hmc.Stats
	Swap hmc.SwapEngineStats
	DRAM memsim.Stats
	NVM  memsim.Stats
	MMU  mmu.Stats // summed over cores

	// AMMAT is the average main-memory access time in CPU cycles
	// (HMC arrival to data return, as in MemPod and Section V-B).
	AMMAT float64

	// Latency summarises per-request HMC service latency split by serving
	// source (DRAM / NVM / swap buffer / PTE-cache): count, mean, and
	// p50/p90/p99/max from log2-bucketed histograms. Always collected.
	Latency obs.LatencySummary

	// LatencyHist carries the raw log2-bucketed histograms behind Latency,
	// so exporters (e.g. the Prometheus /metrics endpoint) can publish full
	// cumulative bucket series instead of just percentiles. Always
	// collected, fixed-size, and deterministic like every other field.
	LatencyHist obs.LatencySet

	// Remap-cache (PRTc / SRC / MemPod remap) statistics for Figure 13.
	RemapCache hmc.MetaCacheStats

	// PageSeer-only detail (zero value otherwise).
	PS               core.Stats
	PrefetchAccuracy float64
	PCTc             hmc.MetaCacheStats

	// SwapsPerKI is completed swap operations per kilo-instruction
	// (Figure 11).
	SwapsPerKI float64

	// EventsFired counts engine events executed during the measured
	// epoch. Deterministic for a given Config, like every other field.
	EventsFired uint64

	// Effectiveness is the swap-provenance digest (trigger mix, accuracy,
	// coverage, wasted transfer bytes, hint lead times) from the optional
	// ledger — zero unless Config.Obs.Ledger is set. Like every other
	// field it is deterministic and fixed-size, so campaign results stay
	// DeepEqual-comparable.
	Effectiveness ledger.Summary

	// CPIStack is the cycle-attribution digest: per-trigger-class CPI
	// stacks (component-tagged blame cycles per retired request) plus the
	// attribution machinery counters — zero unless Config.Obs.CPI is set.
	// Fixed-size and deterministic, like Effectiveness.
	CPIStack attrib.Summary

	// PageMap is the address-space telemetry digest (hot-set sizes, NVM
	// wear, churn/flap counts, reuse-distance distribution, top-churn
	// pages) — zero unless Config.Obs.PageMap is set. Fixed-size and
	// deterministic, like Effectiveness.
	PageMap pagemap.Summary

	// Faults counts what the fault injector actually injected (zero
	// without a fault plan).
	Faults check.InjectorStats

	// Watchdog reports the liveness watchdog's own activity (zero unless
	// Config.Audit armed one). It describes the audit apparatus, not the
	// simulated machine, so result-identity tests compare it separately.
	Watchdog check.WatchdogStats

	// Sampling reports a sampled run's geometry and per-window IPC
	// dispersion (zero unless Config.Sample is set). Like Watchdog it
	// describes the measurement apparatus, not the simulated machine, so
	// result-identity tests compare it separately.
	Sampling SamplingStats
}

// ServiceBreakdown returns the Figure 7 fractions (DRAM, NVM, swap buffer)
// over data demand accesses.
func (r Results) ServiceBreakdown() (dram, nvm, buf float64) {
	tot := float64(r.Ctl.ServedDRAM + r.Ctl.ServedNVM + r.Ctl.ServedBuf)
	if tot == 0 {
		return 0, 0, 0
	}
	return float64(r.Ctl.ServedDRAM) / tot, float64(r.Ctl.ServedNVM) / tot, float64(r.Ctl.ServedBuf) / tot
}

// AccessEffectiveness returns the Figure 8 fractions (positive, negative,
// neutral) over data demand accesses. (Per-swap effectiveness — accuracy,
// coverage, waste — lives in the Effectiveness field, from the ledger.)
func (r Results) AccessEffectiveness() (pos, neg, neu float64) {
	tot := float64(r.Ctl.Positive + r.Ctl.Negative + r.Ctl.Neutral)
	if tot == 0 {
		return 0, 0, 0
	}
	return float64(r.Ctl.Positive) / tot, float64(r.Ctl.Negative) / tot, float64(r.Ctl.Neutral) / tot
}

// PTEMissRate returns Figure 12's metric: the fraction of page walks whose
// final PTE read missed both L2 and L3 and reached the HMC.
func (r Results) PTEMissRate() float64 {
	if r.MMU.Walks == 0 {
		return 0
	}
	return float64(r.Ctl.PTEReachedHMC) / float64(r.MMU.Walks)
}

// MMUDriverHitRate returns the fraction of HMC-reaching PTE requests served
// by the MMU Driver's cache (Section V-B reports >99%).
func (r Results) MMUDriverHitRate() float64 {
	if r.Ctl.PTEReachedHMC == 0 {
		return 1
	}
	return float64(r.Ctl.PTEServedByHMC) / float64(r.Ctl.PTEReachedHMC)
}

func (s *System) collect(epochStart uint64) Results {
	r := Results{
		Scheme:   s.Cfg.Scheme,
		Workload: s.Cfg.Workload,
		Cores:    len(s.Cores),
	}
	var maxFinish uint64
	for _, c := range s.Cores {
		st := c.Stats()
		r.Instructions += st.Instructions
		if st.FinishCycle > maxFinish {
			maxFinish = st.FinishCycle
		}
		r.MMU.Add(c.MMU().Stats())
	}
	if maxFinish > epochStart {
		r.Cycles = maxFinish - epochStart
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	r.Ctl = s.Ctl.Stats()
	r.Swap = s.Ctl.Engine.Stats()
	r.DRAM = s.Ctl.DRAM.Stats()
	r.NVM = s.Ctl.NVM.Stats()
	r.AMMAT = s.Ctl.AMMAT()
	r.Latency = s.lat.Summary()
	r.LatencyHist = *s.lat

	switch {
	case s.PageSeer != nil:
		r.PS = s.PageSeer.Stats()
		r.PrefetchAccuracy = s.PageSeer.PrefetchAccuracy()
		r.RemapCache = s.PageSeer.PRTc().Stats()
		r.PCTc = s.PageSeer.PCTc().Stats()
	case s.PoM != nil:
		r.RemapCache = s.PoM.SRC().Stats()
	case s.MemPod != nil:
		r.RemapCache = s.MemPod.RemapCache().Stats()
	}
	swaps := s.completedSwaps()
	if r.Instructions > 0 {
		r.SwapsPerKI = float64(swaps) / (float64(r.Instructions) / 1000)
	}
	if s.Cfg.Obs.Ledger {
		// Gated (not just nil-guarded): Obs.CPI forces an internal ledger
		// for trigger classing, and Results must stay byte-identical with
		// attribution on or off.
		r.Effectiveness = s.led.Summary()
	}
	if s.att != nil {
		// Fold the compute component in at collect time: non-memory
		// instructions retire at one per cycle, so a core's instruction
		// count is its compute-cycle floor. Excluded from the per-request
		// conservation audit (it is not request latency).
		for i, c := range s.Cores {
			s.att.AddCore(i, c.Stats().Instructions)
		}
		r.CPIStack = s.att.Summary()
	}
	if s.Cfg.Obs.PageMap {
		r.PageMap = s.pm.Summary()
	}
	if inj := s.Ctl.Injector(); inj != nil {
		r.Faults = inj.Stats()
	}
	if s.wd != nil {
		r.Watchdog = s.wd.Stats()
	}
	return r
}
