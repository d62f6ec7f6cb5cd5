// Package pageseer is a from-scratch reproduction of "PageSeer: Using Page
// Walks to Trigger Page Swaps in Hybrid Memory Systems" (Kokolis, Skarlatos,
// Torrellas; HPCA 2019): a cycle-level hybrid DRAM+NVM memory-system
// simulator, the PageSeer hardware scheme (PRT/PRTc, PCT/PCTc, Filter, Hot
// Page Tables, MMU Driver, Swap Driver), the PoM and MemPod baselines, the
// paper's 26 workloads as synthetic trace generators, and a harness that
// regenerates every table and figure of the evaluation.
//
// This root package is the public facade: it re-exports the names the
// commands under cmd/ and the programs under examples/ use, and nothing
// else (TestFacadeNamesHaveCallers keeps it that way). The building blocks
// live under internal/ (see DESIGN.md for the map).
//
// Quick start:
//
//	cfg := pageseer.DefaultConfig()
//	cfg.Workload = "lbm"
//	cfg.Scheme = pageseer.SchemePageSeer
//	sys, err := pageseer.Build(cfg)
//	if err != nil { ... }
//	res, err := sys.Run()
//	fmt.Println(res.IPC, res.AMMAT)
package pageseer

import (
	"io"

	"pageseer/internal/check"
	"pageseer/internal/core"
	"pageseer/internal/figures"
	"pageseer/internal/obs"
	"pageseer/internal/obs/pagemap"
	"pageseer/internal/sim"
	"pageseer/internal/workload"
)

// Scheme selects the hybrid-memory management policy of a run.
type Scheme = sim.Scheme

// The available schemes.
const (
	// SchemeStatic performs no swaps: every page stays at its OS-assigned
	// location (the reference for positive/negative accounting).
	SchemeStatic = sim.SchemeStatic
	// SchemePageSeer is the paper's contribution.
	SchemePageSeer = sim.SchemePageSeer
	// SchemePageSeerNoCorr disables follower correlation (Section V-C).
	SchemePageSeerNoCorr = sim.SchemePageSeerNoCorr
	// SchemePoM is the PoM baseline (Sim et al., MICRO 2014).
	SchemePoM = sim.SchemePoM
	// SchemeMemPod is the MemPod baseline (Prodromou et al., HPCA 2017).
	SchemeMemPod = sim.SchemeMemPod
)

// Config describes one simulation run; see sim.Config for field docs.
type Config = sim.Config

// System is a fully-wired simulated machine.
type System = sim.System

// Results carries every measurement the paper's figures draw on.
type Results = sim.Results

// PageSeerConfig carries the Table II hardware parameters.
type PageSeerConfig = core.Config

// LatencyDist is one source's latency distribution (count, mean,
// p50/p90/p99, max) within Results.Latency.
type LatencyDist = obs.Dist

// The swap triggers (indexes into Results.Effectiveness's per-trigger
// arrays): the HPT threshold, a PCT correlation, an MMU hint, or follower
// correlation.
const (
	TrigRegular  = obs.TrigRegular
	TrigPCT      = obs.TrigPCT
	TrigMMU      = obs.TrigMMU
	TrigFollower = obs.TrigFollower
)

// FaultNone is the Config.Faults kind that injects nothing.
const FaultNone = check.FaultNone

// WritePageMapCSV writes per-page rows (System.PageMap().Rows()) in the
// canonical CSV encoding (byte-identical across a JSON round trip).
func WritePageMapCSV(w io.Writer, rows []pagemap.Row) error { return pagemap.WriteRowsCSV(w, rows) }

// WritePageMapJSON writes per-page rows as indented JSON.
func WritePageMapJSON(w io.Writer, rows []pagemap.Row) error { return pagemap.WriteRowsJSON(w, rows) }

// WritePageMapRegionsCSV writes the 2MB-extent roll-up
// (System.PageMap().Regions()) in the canonical CSV encoding.
func WritePageMapRegionsCSV(w io.Writer, regions []pagemap.Region) error {
	return pagemap.WriteRegionsCSV(w, regions)
}

// WritePageMapRegionsJSON writes the 2MB-extent roll-up as indented JSON.
func WritePageMapRegionsJSON(w io.Writer, regions []pagemap.Region) error {
	return pagemap.WriteRegionsJSON(w, regions)
}

// CPIStackRow is one (workload, scheme) run's CPI stack in the campaign
// table exported by paper-figures -cpistack and pageseer-sim -cpi.
type CPIStackRow = figures.CPIStackRow

// RenderCPIStack renders rows as the normalised cycles-per-instruction
// breakdown table.
func RenderCPIStack(rows []CPIStackRow) string { return figures.RenderCPIStack(rows) }

// WriteCPIStackCSV writes rows in the canonical CSV encoding (byte-identical
// across a JSON round trip).
func WriteCPIStackCSV(w io.Writer, rows []CPIStackRow) error {
	return figures.WriteCPIStackCSV(w, rows)
}

// WriteCPIStackJSON writes rows as indented JSON carrying the full per-class
// stack split.
func WriteCPIStackJSON(w io.Writer, rows []CPIStackRow) error {
	return figures.WriteCPIStackJSON(w, rows)
}

// RunError is the structured failure of one run: identity (workload, scheme,
// seed), where the event loop stood, the cause, and a rendered crashdump.
// System.Run returns it instead of panicking; unwrap with errors.As.
type RunError = sim.RunError

// DefaultConfig returns the laptop-scale default (1/128 of the paper's
// memory system, 2M measured instructions per core after 1M warm-up).
func DefaultConfig() Config { return sim.DefaultConfig() }

// DefaultPageSeerConfig returns the paper's Table II parameters (unscaled).
func DefaultPageSeerConfig() PageSeerConfig { return core.DefaultConfig() }

// Build assembles a system for cfg.
func Build(cfg Config) (*System, error) { return sim.Build(cfg) }

// BuildWithPageSeerConfig assembles a PageSeer system with explicit
// hardware parameters — the hook for threshold sweeps and ablations.
func BuildWithPageSeerConfig(cfg Config, pcfg PageSeerConfig) (*System, error) {
	return sim.BuildWithPageSeerConfig(cfg, pcfg)
}

// Workloads returns the 26 Table III workload names.
func Workloads() []string { return workload.AllWorkloadNames() }

// Suite classifies a workload name (SPEC, Splash-3, CORAL, Mixes).
func Suite(name string) string { return workload.Suite(name) }

// FigureOptions configures a figure-regeneration campaign.
type FigureOptions = figures.Options

// FigureKey names one run of a campaign: workload, scheme, and whether
// PageSeer's bandwidth heuristic is off.
type FigureKey = figures.Key

// ErrStopped is the failure of runs skipped because the campaign was
// stopped (by a signal) before they started.
var ErrStopped = figures.ErrStopped
