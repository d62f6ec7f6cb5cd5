package main

import (
	"fmt"
	"strings"

	"pageseer/internal/sim"
)

// profiles are the four Table III workloads every benchmark workload runs.
// GemsFDTD is where PageSeer's MMU-hint triggers fire; mcf is walk-heavy
// pointer chasing with almost no swaps; radix is the write-heavy scatter with
// the most swap traffic; mix6 runs four separate address spaces. Sharing
// them across workloads lets the sampled workload join its runs to detailed
// references of the same (profile, scheme).
var profiles = []string{"GemsFDTD", "mcf", "radix", "mix6"}

// Detailed runs retire a quarter of sim.DefaultConfig's per-core budgets (2M
// measured after 1M warm-up), which keeps one repeat of the slowest workload
// to a few seconds so a run takes several timed repeats inside its window.
const (
	detailedInstr  = 500_000
	detailedWarmup = 250_000
)

// Sampled runs keep the default budgets: sampled mode exists to shorten long
// runs, and at a quarter of the budgets its 16 windows would be four times as
// large a share of the run. Each window measures 1000 instructions after a
// 1000-instruction detailed warm-up; the rest fast-forwards.
const (
	sampleWindows = 16
	sampleWindow  = 1_000
	sampleWarmup  = 1_000
)

// workload is one named set of simulations a run executes serially, each
// one sim.Build followed by (*System).Run.
type workload struct {
	name    string
	schemes []sim.Scheme
	sampled bool
}

// workloads lists the benchmark's workloads in the order the all-workload
// mode runs them. BENCHMARK.json and README.md give the reason for each.
var workloads = []workload{
	// The paper's mechanism on the full demand path: MMU-hint triggers, the
	// PCT and swaps, over engine, cache, mmu, hmc and memsim.
	{name: "pageseer-detailed", schemes: []sim.Scheme{sim.SchemePageSeer}},
	// The same demand path with no PageSeer code: a change to core predicts
	// no move here, and static isolates the swap-free path.
	{name: "baselines-detailed", schemes: []sim.Scheme{sim.SchemeStatic, sim.SchemePoM, sim.SchemeMemPod}},
	// Functional fast-forward does most of the work: engine and memsim all
	// but vanish, core leads, and cache and hmc run their functional paths.
	{name: "sampled", schemes: []sim.Scheme{sim.SchemePoM, sim.SchemeMemPod, sim.SchemePageSeer}, sampled: true},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// configs returns the workload's runs for one seed, scheme-major. Every
// observer stays off and no engine or parallelism knob is set.
func (w workload) configs(seed uint64) []sim.Config {
	var cfgs []sim.Config
	for _, scheme := range w.schemes {
		for _, p := range profiles {
			cfg := sim.DefaultConfig() // Table III core counts, scale 128
			cfg.Workload = p
			cfg.Scheme = scheme
			cfg.Seed = seed
			if w.sampled {
				cfg.Sample = sampleWindows
				cfg.SampleWindow = sampleWindow
				cfg.SampleWarmup = sampleWarmup
			} else {
				cfg.InstrPerCore = detailedInstr
				cfg.Warmup = detailedWarmup
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// detailedCounterpart is cfg with sampling off: the reference a sampled run's
// accuracy is measured against.
func detailedCounterpart(cfg sim.Config) sim.Config {
	cfg.Sample, cfg.SampleWindow, cfg.SampleWarmup = 0, 0, 0
	return cfg
}

// simulatedInstr is the instruction count one run retires on all cores:
// warm-up, measured and fast-forwarded alike.
func simulatedInstr(cfg sim.Config, cores int) float64 {
	return float64(cores) * float64(cfg.Warmup+cfg.InstrPerCore)
}
