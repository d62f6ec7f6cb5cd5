package main

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names and units, with each metric's better direction and
// each end-to-end metric's bound; TestMetricsMatchBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced repeats: host time per repeat, simulated-instruction throughput,
// set-up time and peak memory. The times are scaled to the reference host
// speed (hostspeed.go).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"run_mips_geomean", "MIPS"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// timeLayers get an absolute self-time metric: they hold samples on every
// workload. The other layers can be absent from a workload by construction
// (pom and mempod from pageseer-detailed, core from baselines-detailed) or
// all but absent (obs, with observers off; runtime, whose helpers are
// charged to their callers), so they report only a share, which may read 0.
var (
	timeLayers  = []string{"engine", "cpu", "cache", "mmu", "mem", "hmc", "memsim", "workload", "sim"}
	shareLayers = []string{"engine", "cpu", "cache", "mmu", "mem", "hmc", "memsim", "core", "pom", "mempod", "workload", "sim", "obs", layerRuntime}
)

// countDefs are the exact counters (counts.metrics), the sampled-accuracy
// figures and the host and tracing figures, in report order.
var countDefs = []metricDef{
	{"engine.events_per_kinstr", "count/kinstr"},
	{"engine.events_per_s", "1/s"},
	{"cache.l1.miss_rate", "ratio"},
	{"cache.l2.miss_rate", "ratio"},
	{"cache.l3.miss_rate", "ratio"},
	{"cache.l1.accesses_per_kinstr", "count/kinstr"},
	{"cache.mshr_merges_per_kinstr", "count/kinstr"},
	{"cache.writebacks_per_kinstr", "count/kinstr"},
	{"mmu.walks_per_kinstr", "count/kinstr"},
	{"hmc.pte_cache_hit_rate", "ratio"},
	{"hmc.served_dram_share", "ratio"},
	{"hmc.served_nvm_share", "ratio"},
	{"hmc.served_buf_share", "ratio"},
	{"hmc.remap_cache.miss_rate", "ratio"},
	{"hmc.swap.ops_per_kinstr", "count/kinstr"},
	{"hmc.swap.rejected_per_kinstr", "count/kinstr"},
	{"hmc.swap.mean_op_cycles", "cycles"},
	{"memsim.dram.accesses_per_kinstr", "count/kinstr"},
	{"memsim.nvm.accesses_per_kinstr", "count/kinstr"},
	{"memsim.dram.row_hit_rate", "ratio"},
	{"memsim.nvm.row_hit_rate", "ratio"},
	{"memsim.dram.mean_wait_cycles", "cycles"},
	{"memsim.nvm.mean_wait_cycles", "cycles"},
	{"memsim.nvm.write_share", "ratio"},
	{"core.hints_per_kinstr", "count/kinstr"},
	{"core.pctc.miss_rate", "ratio"},
	{"sim.ff_share", "ratio"},
	{"sim.window_ipc_cv", "ratio"},
	{"sim.sample_ipc_err_pct", "%"},
	{"sim.sample_swaps_err_pct", "%"},
	{"model.ipc", "ratio"},
	{"model.cycles", "cycles"},
	{"model.ammat_cycles", "cycles"},
	{"model.swaps_per_ki", "count/kinstr"},
	{"model.prefetch_accuracy", "ratio"},
	{"host.alloc_bytes_per_kinstr", "B/kinstr"},
	{"host.gc_cycles", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// perLayer lists every per-layer metric in report order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range timeLayers {
		defs = append(defs, metricDef{"layer." + l + ".self_ns_per_kinstr", "ns/kinstr"})
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{"layer." + l + ".self_share", "ratio"})
	}
	return append(defs, countDefs...)
}
