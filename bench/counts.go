package main

import (
	"pageseer/internal/cache"
	"pageseer/internal/core"
	"pageseer/internal/hmc"
	"pageseer/internal/memsim"
	"pageseer/internal/sim"
)

// counts pools the exact counters of a workload's runs, read after each
// verification run through Results and the exported stats accessors. Every
// counter covers the measured epoch (the windows, in sampled mode), except
// events, which counts every engine event of the run.
type counts struct {
	runs          int
	measuredInstr float64 // Σ Results.Instructions
	simInstr      float64 // Σ instructions retired, warm-up and fast-forward included
	events        float64 // Σ engine events fired over the whole run

	l1, l2, l3 cache.Stats
	walks      float64
	ctl        hmc.Stats
	swap       hmc.SwapEngineStats
	dram, nvm  memsim.Stats
	remap      hmc.MetaCacheStats
	pctc       hmc.MetaCacheStats
	ps         core.Stats

	ffInstr   float64
	sumIPC    float64
	sumCycles float64
	sumSwaps  float64 // Σ SwapsPerKI
	sumCV     float64 // Σ Sampling.IPCCV
}

func (c *counts) add(cfg sim.Config, sys *sim.System, r sim.Results) {
	c.runs++
	c.measuredInstr += float64(r.Instructions)
	c.simInstr += simulatedInstr(cfg, r.Cores)
	c.events += float64(sys.Sim.Fired())
	for i, core := range sys.Cores {
		c.l1.Add(core.L1().Stats())
		c.l2.Add(sys.L2s[i].Stats())
	}
	c.l3.Add(sys.L3.Stats())
	c.walks += float64(r.MMU.Walks)
	c.ctl.Add(r.Ctl)
	c.swap.Add(r.Swap)
	c.dram.Add(r.DRAM)
	c.nvm.Add(r.NVM)
	c.remap.Add(r.RemapCache)
	c.pctc.Add(r.PCTc)
	c.ps.Add(r.PS)
	c.ffInstr += float64(r.Sampling.FastForwarded)
	c.sumIPC += r.IPC
	c.sumCycles += float64(r.Cycles)
	c.sumSwaps += r.SwapsPerKI
	c.sumCV += r.Sampling.IPCCV
}

// ratio is num/den, or 0 when the workload has no such activity (PageSeer
// counters under the baselines, say).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func missRate(s cache.Stats) float64 { return ratio(float64(s.Misses), float64(s.Accesses)) }

func metaMissRate(s hmc.MetaCacheStats) float64 {
	return ratio(float64(s.Misses), float64(s.Hits+s.Misses))
}

func rowHitRate(s memsim.Stats) float64 {
	return ratio(float64(s.RowHits), float64(s.RowHits+s.RowMisses+s.RowConflicts))
}

// metrics returns the count metrics by name. Rates "per kinstr" divide by
// the measured instructions the counters cover, except the engine's, which
// divide by every simulated instruction.
func (c *counts) metrics() map[string]float64 {
	perKI := func(x float64) float64 { return ratio(x, c.measuredInstr/1000) }
	n := float64(c.runs)
	served := float64(c.ctl.ServedDRAM + c.ctl.ServedNVM + c.ctl.ServedBuf)
	return map[string]float64{
		"engine.events_per_kinstr":        ratio(c.events, c.simInstr/1000),
		"cache.l1.miss_rate":              missRate(c.l1),
		"cache.l2.miss_rate":              missRate(c.l2),
		"cache.l3.miss_rate":              missRate(c.l3),
		"cache.l1.accesses_per_kinstr":    perKI(float64(c.l1.Accesses)),
		"cache.mshr_merges_per_kinstr":    perKI(float64(c.l1.MSHRMerges + c.l2.MSHRMerges + c.l3.MSHRMerges)),
		"cache.writebacks_per_kinstr":     perKI(float64(c.l1.Writebacks + c.l2.Writebacks + c.l3.Writebacks)),
		"mmu.walks_per_kinstr":            perKI(c.walks),
		"hmc.pte_cache_hit_rate":          ratio(float64(c.ctl.PTEServedByHMC), float64(c.ctl.PTEReachedHMC)),
		"hmc.served_dram_share":           ratio(float64(c.ctl.ServedDRAM), served),
		"hmc.served_nvm_share":            ratio(float64(c.ctl.ServedNVM), served),
		"hmc.served_buf_share":            ratio(float64(c.ctl.ServedBuf), served),
		"hmc.remap_cache.miss_rate":       metaMissRate(c.remap),
		"hmc.swap.ops_per_kinstr":         perKI(float64(c.swap.OpsCompleted)),
		"hmc.swap.rejected_per_kinstr":    perKI(float64(c.swap.OpsRejected)),
		"hmc.swap.mean_op_cycles":         ratio(float64(c.swap.OpCycles), float64(c.swap.OpsCompleted)),
		"memsim.dram.accesses_per_kinstr": perKI(float64(c.dram.Reads + c.dram.Writes)),
		"memsim.nvm.accesses_per_kinstr":  perKI(float64(c.nvm.Reads + c.nvm.Writes)),
		"memsim.dram.row_hit_rate":        rowHitRate(c.dram),
		"memsim.nvm.row_hit_rate":         rowHitRate(c.nvm),
		"memsim.dram.mean_wait_cycles":    ratio(float64(c.dram.TotalWait), float64(c.dram.Reads+c.dram.Writes)),
		"memsim.nvm.mean_wait_cycles":     ratio(float64(c.nvm.TotalWait), float64(c.nvm.Reads+c.nvm.Writes)),
		"memsim.nvm.write_share":          ratio(float64(c.nvm.Writes), float64(c.nvm.Reads+c.nvm.Writes)),
		"core.hints_per_kinstr":           perKI(float64(c.ps.HintsReceived)),
		"core.pctc.miss_rate":             metaMissRate(c.pctc),
		"sim.ff_share":                    ratio(c.ffInstr, c.simInstr),
		"sim.window_ipc_cv":               ratio(c.sumCV, n),
		"model.ipc":                       ratio(c.sumIPC, n),
		"model.cycles":                    c.sumCycles,
		"model.ammat_cycles":              ratio(float64(c.ctl.LatencyTotal), float64(c.ctl.Demand)),
		"model.swaps_per_ki":              ratio(c.sumSwaps, n),
		"model.prefetch_accuracy":         ratio(float64(c.ps.PrefetchAccurate), float64(c.ps.PrefetchTracked)),
	}
}
