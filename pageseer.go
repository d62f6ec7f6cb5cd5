// Package pageseer is a from-scratch reproduction of "PageSeer: Using Page
// Walks to Trigger Page Swaps in Hybrid Memory Systems" (Kokolis, Skarlatos,
// Torrellas; HPCA 2019): a cycle-level hybrid DRAM+NVM memory-system
// simulator, the PageSeer hardware scheme (PRT/PRTc, PCT/PCTc, Filter, Hot
// Page Tables, MMU Driver, Swap Driver), the PoM and MemPod baselines, the
// paper's 26 workloads as synthetic trace generators, and a harness that
// regenerates every table and figure of the evaluation.
//
// This root package is the public facade: it re-exports the simulation
// driver and figure harness so tools and examples read naturally. The
// building blocks live under internal/ (see DESIGN.md for the map).
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
	"net/http"

	"pageseer/internal/check"
	"pageseer/internal/core"
	"pageseer/internal/figures"
	"pageseer/internal/obs"
	"pageseer/internal/obs/attrib"
	"pageseer/internal/obs/ledger"
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

// ObsOptions selects the optional observability sinks of a run (epoch
// timeline, Chrome-trace events); see sim.ObsOptions.
type ObsOptions = sim.ObsOptions

// Timeline is the epoch timeline sampler (System.Timeline when enabled);
// write it out with WriteCSV / WriteJSON.
type Timeline = obs.Timeline

// Tracer is the Chrome-trace event recorder (System.Tracer when enabled);
// write it out with WriteJSON and load the file in Perfetto or
// chrome://tracing.
type Tracer = obs.Tracer

// LatencySummary is the per-source HMC service-latency digest in
// Results.Latency.
type LatencySummary = obs.LatencySummary

// LatencyDist is one source's latency distribution (count, mean,
// p50/p90/p99, max) within a LatencySummary.
type LatencyDist = obs.Dist

// EffectivenessSummary is the swap-provenance digest in
// Results.Effectiveness (trigger mix, accuracy, coverage, wasted transfer
// bytes, hint lead times) — zero unless Config.Obs.Ledger is set.
type EffectivenessSummary = ledger.Summary

// SwapTrigger classifies what caused a swap: the HPT threshold, a PCT
// correlation, an MMU hint, or follower correlation.
type SwapTrigger = obs.Trigger

// The swap-trigger taxonomy (indexes into EffectivenessSummary's
// per-trigger arrays).
const (
	TrigRegular  = obs.TrigRegular
	TrigPCT      = obs.TrigPCT
	TrigMMU      = obs.TrigMMU
	TrigFollower = obs.TrigFollower
	NumTriggers  = obs.NumTriggers
)

// CPIStackSummary is the cycle-attribution digest in Results.CPIStack:
// per-trigger-class CPI stacks (component-tagged blame cycles per retired
// demand request) plus the attribution machinery counters — zero unless
// Config.Obs.CPI is set.
type CPIStackSummary = attrib.Summary

// CPIStack is one CPI-stack cell: retired request count, summed end-to-end
// latency, and its per-component decomposition.
type CPIStack = attrib.Stack

// BlameComponent tags one slice of a request's end-to-end latency in a
// CPIStack (core base, cache levels, TLB/walk, metadata, queues, DRAM/NVM
// service, swap-buffer and swap-interference time).
type BlameComponent = attrib.Component

// The blame components (indexes into CPIStack.Comp).
const (
	CompCore           = attrib.CompCore
	CompL1             = attrib.CompL1
	CompL2             = attrib.CompL2
	CompL3             = attrib.CompL3
	CompMSHR           = attrib.CompMSHR
	CompTLB            = attrib.CompTLB
	CompWalk           = attrib.CompWalk
	CompPTECache       = attrib.CompPTECache
	CompMeta           = attrib.CompMeta
	CompRemap          = attrib.CompRemap
	CompMemQ           = attrib.CompMemQ
	CompSwapXfer       = attrib.CompSwapXfer
	CompSwapBuf        = attrib.CompSwapBuf
	CompDRAM           = attrib.CompDRAM
	CompNVM            = attrib.CompNVM
	NumBlameComponents = attrib.NumComponents
)

// TriggerClass buckets a retired request by the provenance of the data it
// hit: unswapped, or one class per swap trigger.
type TriggerClass = attrib.Class

// The trigger classes (indexes into CPIStackSummary.Class).
const (
	ClassUnswapped    = attrib.ClassNone
	ClassRegular      = attrib.ClassRegular
	ClassPCT          = attrib.ClassPCT
	ClassMMU          = attrib.ClassMMU
	ClassFollower     = attrib.ClassFollower
	NumTriggerClasses = attrib.NumClasses
)

// PageMapSummary is the address-space telemetry digest in Results.PageMap
// (hot-set sizes, NVM wear, swap churn, flap counts, reuse distances, the
// top-churn leaderboard) — zero unless Config.Obs.PageMap is set.
type PageMapSummary = pagemap.Summary

// PageMapRow is one swap unit's full telemetry record, as exported by
// pageseer-sim -pagemap-csv/-json (System.PageMap().Rows()).
type PageMapRow = pagemap.Row

// PageMapRegion is one 2MB extent of the pagemap's roll-up view
// (pageseer-sim -pagemap-2mb; System.PageMap().Regions()).
type PageMapRegion = pagemap.Region

// WritePageMapCSV writes per-page rows in the canonical CSV encoding
// (byte-identical across a JSON round trip).
func WritePageMapCSV(w io.Writer, rows []PageMapRow) error { return pagemap.WriteRowsCSV(w, rows) }

// WritePageMapJSON writes per-page rows as indented JSON.
func WritePageMapJSON(w io.Writer, rows []PageMapRow) error { return pagemap.WriteRowsJSON(w, rows) }

// ReadPageMapJSON parses rows written by WritePageMapJSON.
func ReadPageMapJSON(r io.Reader) ([]PageMapRow, error) { return pagemap.ReadRowsJSON(r) }

// WritePageMapRegionsCSV writes the 2MB-extent roll-up in the canonical CSV
// encoding.
func WritePageMapRegionsCSV(w io.Writer, regions []PageMapRegion) error {
	return pagemap.WriteRegionsCSV(w, regions)
}

// WritePageMapRegionsJSON writes the 2MB-extent roll-up as indented JSON.
func WritePageMapRegionsJSON(w io.Writer, regions []PageMapRegion) error {
	return pagemap.WriteRegionsJSON(w, regions)
}

// ReadPageMapRegionsJSON parses regions written by WritePageMapRegionsJSON.
func ReadPageMapRegionsJSON(r io.Reader) ([]PageMapRegion, error) {
	return pagemap.ReadRegionsJSON(r)
}

// ChurnRow is one (workload, scheme) run's pagemap digest in the campaign
// table exported by paper-figures -churn.
type ChurnRow = figures.ChurnRow

// RenderChurn renders rows as the address-space churn table.
func RenderChurn(rows []ChurnRow) string { return figures.RenderChurn(rows) }

// WriteChurnCSV writes churn rows in the canonical CSV encoding
// (byte-identical across a JSON round trip).
func WriteChurnCSV(w io.Writer, rows []ChurnRow) error { return figures.WriteChurnCSV(w, rows) }

// WriteChurnJSON writes churn rows as indented JSON carrying the full
// per-run pagemap.Summary.
func WriteChurnJSON(w io.Writer, rows []ChurnRow) error { return figures.WriteChurnJSON(w, rows) }

// ReadChurnJSON parses rows written by WriteChurnJSON.
func ReadChurnJSON(r io.Reader) ([]ChurnRow, error) { return figures.ReadChurnJSON(r) }

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

// ReadCPIStackJSON parses rows written by WriteCPIStackJSON.
func ReadCPIStackJSON(r io.Reader) ([]CPIStackRow, error) { return figures.ReadCPIStackJSON(r) }

// RunError is the structured failure of one run: identity (workload, scheme,
// seed), where the event loop stood, the cause, and a rendered crashdump.
// System.Run returns it instead of panicking; unwrap with errors.As.
type RunError = sim.RunError

// FaultPlan selects a deterministic fault-injection campaign for a run
// (Config.Faults); the zero value injects nothing.
type FaultPlan = check.FaultPlan

// FaultKind names one injectable fault family.
type FaultKind = check.FaultKind

// The injectable faults.
const (
	FaultNone            = check.FaultNone
	FaultSwapExhaustion  = check.FaultSwapExhaustion
	FaultMetaThrash      = check.FaultMetaThrash
	FaultQueueSaturation = check.FaultQueueSaturation
	FaultDemandStorm     = check.FaultDemandStorm
)

// FaultKinds lists the injectable fault kinds (excluding FaultNone).
func FaultKinds() []FaultKind { return check.FaultKinds() }

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

// FigureRunner executes and memoises the runs behind the paper's figures.
type FigureRunner = figures.Runner

// NewFigureRunner builds a runner; use figures helpers (Figure7..Figure14,
// Ablation) to regenerate specific results.
func NewFigureRunner(opts FigureOptions) *FigureRunner { return figures.NewRunner(opts) }

// FigureKey names one FigureRunner run: workload, scheme, and whether
// PageSeer's bandwidth heuristic is off.
type FigureKey = figures.Key

// FigureNeeds selects which run families FigureRunner.Prefetch executes
// (baselines, ablation, no-BW); FigureRunner.RunAll covers them all.
type FigureNeeds = figures.Needs

// NewIntrospectionHandler builds the live introspection HTTP handler over a
// FigureRunner: campaign progress on /, per-run JSON on /runs, Prometheus
// metrics (including latency histograms and CPI cycle counters) on /metrics,
// and pprof under /debug/pprof/. Both paper-figures -serve and pageseer-sim
// -serve mount it.
func NewIntrospectionHandler(r *FigureRunner) http.Handler {
	return figures.NewIntrospectionHandler(r)
}

// DefaultFigureOptions runs the full 26-workload campaign.
func DefaultFigureOptions() FigureOptions { return figures.DefaultOptions() }

// QuickFigureOptions runs a reduced campaign for smoke checks and benches.
func QuickFigureOptions() FigureOptions { return figures.QuickOptions() }

// Journal is the crash-safe campaign journal: completed runs append to it
// (fsynced), and a resumed campaign replays them instead of re-executing.
type Journal = figures.Journal

// OpenJournal creates (or with resume, reopens and replays) the campaign
// journal in dir; campaignHash must be CampaignHash of the campaign's
// options.
func OpenJournal(dir, campaignHash string, resume bool) (*Journal, error) {
	return figures.OpenJournal(dir, campaignHash, resume)
}

// CampaignHash digests the FigureOptions run template with its per-run
// fields cleared; it is the journal's campaign-compatibility check.
func CampaignHash(opts FigureOptions) string { return figures.CampaignHash(opts) }

// ErrStopped is the failure of runs skipped because the campaign was
// stopped (FigureRunner.Stop) before they started.
var ErrStopped = figures.ErrStopped
