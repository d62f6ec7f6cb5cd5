// Package sim assembles complete simulated systems — cores, TLBs and page
// walkers, cache hierarchy, hybrid memory controller with a chosen
// management scheme, DRAM and NVM timing models, OS, and workload traces —
// and runs them to produce the measurements the paper's figures report.
package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"pageseer/internal/cache"
	"pageseer/internal/check"
	"pageseer/internal/core"
	"pageseer/internal/cpu"
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mempod"
	"pageseer/internal/mmu"
	"pageseer/internal/obs"
	"pageseer/internal/obs/attrib"
	"pageseer/internal/obs/ledger"
	"pageseer/internal/obs/pagemap"
	"pageseer/internal/pom"
	"pageseer/internal/workload"
)

// Scheme selects the hybrid-memory management policy.
type Scheme string

// The managers the evaluation compares.
const (
	SchemeStatic         Scheme = "static"
	SchemePageSeer       Scheme = "pageseer"
	SchemePageSeerNoCorr Scheme = "pageseer-nocorr"
	SchemePoM            Scheme = "pom"
	SchemeMemPod         Scheme = "mempod"
)

// Schemes returns the comparison set of Figure 14.
func Schemes() []Scheme { return []Scheme{SchemePoM, SchemeMemPod, SchemePageSeer} }

// Config describes one simulation run.
type Config struct {
	Scheme   Scheme
	Workload string // one of the 26 Table III names

	// Scale divides the paper's memory sizes, footprints, cache/TLB/SRAM
	// capacities uniformly so runs fit in seconds while preserving the
	// pressure ratios (DRAM:footprint, TLB reach:footprint, frames per
	// PRTc color). Scale=1 is the paper's full configuration.
	Scale int

	// InstrPerCore is the measured instruction budget per core; Warmup
	// instructions run first and are excluded from every statistic
	// (the paper: 2B measured after 1.5B warm-up).
	InstrPerCore uint64
	Warmup       uint64

	Seed uint64

	// MaxCores caps the core count (unique-benchmark workloads run
	// Instances cores, e.g. leslie3d x12). 0 means no cap.
	MaxCores int

	// BWOpt toggles PageSeer's Swap Driver bandwidth heuristic
	// (Figure 11's ablation). Defaults to on for scheme "pageseer".
	DisableBWOpt bool

	// Sample enables SMARTS-style sampled execution: the measured region
	// (InstrPerCore per core) is divided into Sample equal strides, each
	// opening with a SampleWarmup-instruction detailed warm-up (stats
	// discarded) and a SampleWindow-instruction detailed measurement; the
	// rest of every stride — and the global Warmup before window 0's
	// detailed warm-up — executes as functional fast-forward. Fast-forward
	// retires instructions with no events and no timing while keeping
	// architectural state warm — TLBs, page-walk caches, cache tags,
	// hot-page counters, correlation tables, metadata-cache residency, and
	// the remap itself (swaps commit instantly) — so each window measures a
	// machine in representative state. Results are the sum of the window
	// measurements with ratio metrics recomputed over the sums, and the
	// sampling geometry and per-window IPC dispersion reported in
	// Results.Sampling. 0 (the default) disables sampling: the untouched
	// detailed path runs and Results are byte-identical to builds without
	// this knob. The degenerate geometry (Sample=1, SampleWarmup=Warmup,
	// SampleWindow=InstrPerCore) reduces structurally to the detailed
	// schedule and reproduces its Results exactly.
	Sample uint64

	// SampleWindow is the detailed measured instruction budget per core per
	// window; SampleWarmup is the detailed warm-up prefix per window whose
	// statistics are discarded. Sample strides must tile the measured
	// region: InstrPerCore % Sample == 0, SampleWindow <= the
	// InstrPerCore/Sample stride, SampleWarmup <= Warmup (window 0's
	// warm-up is carved from the global warm-up), and for Sample > 1 also
	// SampleWarmup+SampleWindow <= stride (later warm-ups are carved from
	// the preceding gap).
	SampleWindow uint64
	SampleWarmup uint64

	// Obs enables the optional observability sinks (epoch timeline,
	// Chrome-trace event stream). Latency histograms are always collected:
	// recording is allocation-free, schedules no events, and therefore
	// cannot perturb Results — which stay byte-identical whether these
	// sinks are on or off.
	Obs ObsOptions

	// Audit arms the robustness instrumentation: a liveness watchdog during
	// the run (a stretch of cycles with no retired instructions and no
	// memory traffic aborts with forensics instead of spinning to the event
	// bound) and a full invariant audit at the end (see CheckInvariants).
	// Auditing reads counters that are maintained unconditionally as plain
	// integer updates, so Results are byte-identical with it on or off and
	// the demand path allocates nothing either way.
	Audit bool

	// Faults selects a deterministic fault-injection campaign (the zero
	// value injects nothing). Injection *does* change behaviour — that is
	// its purpose — but deterministically: decisions depend only on
	// (Faults.Seed, decision index), so a faulted run is exactly as
	// repeatable as a clean one.
	Faults check.FaultPlan

	// pageSeerCfg overrides the scaled default PageSeer configuration
	// (set via BuildWithPageSeerConfig).
	pageSeerCfg *core.Config

	// customManager, when set (via BuildWithManager), installs a
	// user-defined scheme instead of one of the named ones.
	customManager ManagerFactory

	// forceHeapQueue routes every engine event through the overflow heap,
	// bypassing the timing wheel — the reference the wheel-vs-heap
	// differential test compares against.
	forceHeapQueue bool
}

// ObsOptions selects which observability sinks a run attaches. The zero
// value disables everything optional.
type ObsOptions struct {
	// TimelineEvery samples the epoch timeline every N cycles (0 = off).
	// Sampling rides the engine clock (engine.SetTick), so it fires no
	// events and leaves Results.EventsFired untouched.
	TimelineEvery uint64

	// Trace records swap-lifecycle spans, MMU-hint causality arrows and the
	// provenance ledger's running counts in Chrome Trace Event Format
	// (System.Tracer, written via WriteJSON). Tracing runs a ledger for
	// those counter tracks, so a run's trace is the same whatever other
	// sinks are attached.
	Trace bool

	// Ledger attaches the swap-provenance ledger: per-swap causal records
	// (trigger, hint lead time, stage durations, remap commit) resolved to
	// useful / unused / late outcomes and digested into
	// Results.Effectiveness. Off by default; when off, nothing subscribes
	// to the swap-lifecycle stream and the hot paths allocate nothing.
	Ledger bool

	// CPI attaches the cycle-attribution layer: every demand request carries
	// a blame vector stamped at each pipeline stage and folded at retire into
	// per-core, per-trigger-class CPI-stack accumulators
	// (Results.CPIStack). Attribution forces an internal provenance ledger
	// (for the trigger taxonomy) but Results.Effectiveness stays gated on
	// Ledger, so Results are byte-identical with CPI on or off. Off by
	// default; when off, the hot paths pay one nil check per stamp and
	// allocate nothing.
	CPI bool

	// PageMap attaches the address-space telemetry table: per-page demand
	// heat split by service source, read/write mix, NVM wear, swap churn
	// by trigger, residency timelines, and flap detection (the
	// pagemap.DefaultFlapK / DefaultFlapWindow rule), digested into
	// Results.PageMap. The table accumulates over the whole measured region
	// — including sampled mode's fast-forward gaps (via the functional
	// access event) — rather than resetting per window. Off by default,
	// at the Ledger's cost.
	PageMap bool
}

// ManagerFactory builds a management scheme on a controller. Build
// installs the manager it returns unless the factory already called
// ctl.SetManager (managers typically do so in their constructors).
type ManagerFactory func(ctl *hmc.Controller) hmc.Manager

// DefaultConfig returns a laptop-scale configuration: 1/128 of the paper's
// memory system. At this scale a workload's active region cycles in about
// 2M instructions per core, so warm-up trains the PCT (and fills DRAM) and
// the measured epoch covers at least one full recurrence — the same
// train-then-measure structure the paper gets from 1.5B warm-up + 2B
// measured instructions.
func DefaultConfig() Config {
	return Config{
		Scheme:       SchemePageSeer,
		Workload:     "lbm",
		Scale:        128,
		InstrPerCore: 2_000_000,
		Warmup:       1_000_000,
		Seed:         1,
	}
}

// System is one fully-wired simulated machine.
type System struct {
	Cfg   Config
	Sim   *engine.Sim
	OS    *mem.OS
	Ctl   *hmc.Controller
	L3    *cache.Cache
	Cores []*cpu.Core
	L2s   []*cache.Cache

	PageSeer *core.PageSeer // nil unless the installed manager is a PageSeer

	// Timeline and Tracer are the optional sinks selected by Config.Obs
	// (nil when off).
	Timeline *obs.Timeline
	Tracer   *obs.Tracer

	// led is the optional swap-provenance ledger (Config.Obs.Ledger, or
	// forced internally by Config.Obs.CPI for trigger classing and by
	// Config.Obs.Trace for its counter tracks); att is the
	// optional cycle-attribution accumulator (Config.Obs.CPI); wd is the
	// liveness watchdog armed by Config.Audit. All nil when off.
	led *ledger.Ledger
	att *attrib.Attrib
	wd  *check.Watchdog

	// pm is the optional per-page telemetry table (Config.Obs.PageMap).
	// pmCleared latches its one-time epoch reset: unlike the per-window
	// sinks, the pagemap clears exactly once — at the first stats reset —
	// and then accumulates across every window and fast-forward gap.
	pm        *pagemap.PageMap
	pmCleared bool

	// doneCores counts cores that retired the current phase's budget.
	doneCores int

	// abortFlag/abortReason implement cooperative cancellation: Abort may be
	// called from any goroutine; the event loops poll the flag every few
	// thousand steps and panic with an *abortError, which the usual recover
	// path turns into a *RunError.
	abortFlag   atomic.Bool
	abortReason atomic.Value // string
}

// Abort requests that the current (or next) Run stop as soon as the event
// loop notices — within a few thousand events. Safe to call from any
// goroutine (a signal handler, a wall-clock deadline timer). The aborted run
// fails with a *RunError whose cause carries the reason.
func (s *System) Abort(reason string) {
	s.abortReason.Store(reason)
	s.abortFlag.Store(true)
}

// abortError is the panic payload checkAbort injects into the event loop;
// Run's recover handler converts it into a *RunError like any other failure.
type abortError struct{ reason string }

func (e *abortError) Error() string { return "aborted: " + e.reason }

// checkAbort polls the abort flag; called every abortCheckSteps loop
// iterations so the flag costs one atomic load amortized over thousands of
// events.
func (s *System) checkAbort() {
	if s.abortFlag.Load() {
		reason, _ := s.abortReason.Load().(string)
		panic(&abortError{reason: reason})
	}
}

// abortCheckMask gates the abort poll to every 8192 loop iterations.
const abortCheckMask = 8192 - 1

// Ledger returns the run's swap-provenance ledger (nil unless
// Config.Obs.Ledger was set).
func (s *System) Ledger() *ledger.Ledger { return s.led }

// PageMap returns the run's per-page telemetry table (nil unless
// Config.Obs.PageMap was set). The CLIs use it for the full-table export.
func (s *System) PageMap() *pagemap.PageMap { return s.pm }

// BuildWithManager assembles a system around a user-defined management
// scheme — the extension point for custom policies (see
// examples/custom-policy).
func BuildWithManager(cfg Config, factory ManagerFactory) (*System, error) {
	cfg.customManager = factory
	return Build(cfg)
}

// BuildWithPageSeerConfig assembles a PageSeer system with an explicit
// PageSeer configuration — the hook the tuning example and the ablation
// benches use to vary thresholds and structure sizes.
func BuildWithPageSeerConfig(cfg Config, pcfg core.Config) (*System, error) {
	cfg.Scheme = SchemePageSeer
	cfg.pageSeerCfg = &pcfg
	return Build(cfg)
}

// Build assembles a system for cfg.
func Build(cfg Config) (*System, error) {
	install, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	cfg.Scale = max(cfg.Scale, 1) // the normalisation validate checked under
	profiles, feet, err := cfg.cores()
	if err != nil {
		return nil, err
	}
	nCores := len(profiles)

	layout := memoryAt(cfg.Scale)
	// Reserve DRAM for page tables plus the manager's metadata regions.
	reserve := layout.DRAMPages() / 16
	osm := mem.NewOS(layout, reserve)

	sm := engine.New()
	if cfg.forceHeapQueue {
		sm.DisableWheel()
	}
	// Steady-state event concurrency: each in-flight memory op holds one
	// event across its pipeline stages, plus per-channel wakeups and swap
	// engine traffic. Reserving up front keeps append-growth out of the
	// measured epoch.
	sm.Reserve(nCores*cpu.MaxOutstanding*4 + 256)
	ctl := hmc.NewController(sm, osm)

	sys := &System{Cfg: cfg, Sim: sm, OS: osm, Ctl: ctl}
	if cfg.Obs.Trace {
		sys.Tracer = obs.NewTracer()
		sys.Tracer.ProcessName(obs.TracePidCores, "cores (MMU hints)")
		sys.Tracer.ProcessName(obs.TracePidSwap, "HMC swap engine")
		ctl.Attach(sys.Tracer)
	}
	if cfg.Obs.TimelineEvery > 0 {
		sys.Timeline = obs.NewTimeline(cfg.Obs.TimelineEvery, sys.timelineCounters)
	}
	if inj := check.NewInjector(cfg.Faults); inj != nil {
		// Before the scheme: its metadata caches take the injector as the
		// controller builds them.
		ctl.SetInjector(inj)
	}
	if m := install(ctl); ctl.Manager() == nil {
		ctl.SetManager(m)
	}
	sys.PageSeer, _ = ctl.Manager().(*core.PageSeer)
	// The swap-unit observers key their rows by the scheme's swap unit.
	if cfg.Obs.Ledger || cfg.Obs.CPI || sys.Tracer != nil {
		// Trigger classing (hint-prefetched DRAM hit vs regular) needs swap
		// provenance, so attribution runs a ledger too, and a trace carries
		// the ledger's counter tracks. Results.Effectiveness stays gated on
		// Obs.Ledger, so Results remain byte-identical with attribution or
		// tracing on or off.
		sys.led = ledger.New(ctl.UnitShift())
		ctl.Attach(sys.led)
		if sys.Tracer != nil {
			ctl.Attach(ledgerCounters{t: sys.Tracer, l: sys.led})
		}
	}
	if cfg.Obs.PageMap {
		sys.pm = pagemap.New(ctl.UnitShift(), pagemap.DefaultFlapK, pagemap.DefaultFlapWindow)
		ctl.Attach(sys.pm)
	}
	if cfg.Obs.CPI {
		sys.att = attrib.New(nCores)
	}
	if sys.att != nil && sys.PageSeer != nil {
		sys.PageSeer.SetAttrib(sys.att)
	}

	l1cfg, l2cfg, l3cfg := cacheConfigs(cfg.Scale)
	sys.L3 = cache.New(sm, l3cfg, ctl)

	var hinter mmu.Hinter
	if sys.PageSeer != nil || cfg.customManager != nil {
		hinter = ctl
	}
	// TLB reach scales linearly with the memory scale, like the footprints
	// themselves: the workload generators derive their phase windows as a
	// fixed fraction of the (linearly scaled) footprint, so only linear TLB
	// scaling preserves the paper's window-to-reach pressure ratio (a
	// GemsFDTD phase window is ~5.7x the L2 TLB's reach at every scale).
	// Square-root scaling — used for the SRAM caches — would leave a TLB
	// that covers the whole scaled window, so hot-page revisits would never
	// page-walk and the paper's headline MMU-hint trigger (Figure 3) could
	// never fire on a PCT-trained page. The ways floor in scaleCount keeps
	// the smallest TLBs functional.
	mcfg := mmu.DefaultConfig()
	mcfg.L1TLB.Entries = scaleCount(mcfg.L1TLB.Entries, cfg.Scale, mcfg.L1TLB.Ways)
	mcfg.L2TLB.Entries = scaleCount(mcfg.L2TLB.Entries, cfg.Scale, mcfg.L2TLB.Ways)

	for i := 0; i < nCores; i++ {
		pid := i + 1
		osm.NewProcess(pid)
		l2 := cache.New(sm, l2cfg, sys.L3)
		l1 := cache.New(sm, l1cfg, l2)
		m := mmu.New(sm, osm, i, pid, mcfg, l2, hinter)
		gen := workload.NewGenerator(profiles[i], feet[i], cfg.Seed+uint64(i))
		c := cpu.NewCore(sm, i, pid, m, l1, gen)
		if sys.att != nil {
			c.SetAttrib(sys.att)
		}
		sys.L2s = append(sys.L2s, l2)
		sys.Cores = append(sys.Cores, c)
	}
	if err := preTouch(osm, feet); err != nil {
		return nil, err
	}
	// Every frame the run can name is now mapped: size the per-frame state.
	ctl.Seal(osm.Allocator().Named())
	return sys, nil
}

// ledgerCounters samples the ledger's running totals onto the trace's
// counter tracks whenever a swap settles, so the sample reflects the
// committed remap.
type ledgerCounters struct {
	obs.NopProbe
	t *obs.Tracer
	l *ledger.Ledger
}

func (c ledgerCounters) SwapSettled(now uint64) {
	started, useful, unused, open := c.l.Counts()
	c.t.Counter("ledger", "swaps-started", obs.TracePidSwap, now, "value", started)
	c.t.Counter("ledger", "swaps-useful", obs.TracePidSwap, now, "value", useful)
	c.t.Counter("ledger", "swaps-unused", obs.TracePidSwap, now, "value", unused)
	c.t.Counter("ledger", "swaps-open", obs.TracePidSwap, now, "value", open)
}

// resolveScheme maps cfg to the factory that installs its manager, after
// checking the geometry of the metadata caches that manager builds, and
// returns the bytes of controller tables the manager reserves in DRAM. It
// is the one function in sim that names a scheme's package, so adding or
// retiring a scheme edits it and the scheme's own package.
func (cfg Config) resolveScheme() (install ManagerFactory, tables []uint64, err error) {
	if cfg.customManager != nil {
		return cfg.customManager, nil, nil // the factory owns construction
	}
	switch cfg.Scheme {
	case SchemeStatic:
		install = func(ctl *hmc.Controller) hmc.Manager { return hmc.NewStatic(ctl) }
	case SchemePageSeer, SchemePageSeerNoCorr:
		pcfg := core.DefaultConfig().Scale(cfg.Scale)
		pcfg.NoCorr = cfg.Scheme == SchemePageSeerNoCorr
		pcfg.BWOpt = !cfg.DisableBWOpt
		if cfg.pageSeerCfg != nil {
			pcfg = *cfg.pageSeerCfg
		}
		install = func(ctl *hmc.Controller) hmc.Manager { return core.New(ctl, pcfg) }
		tables = []uint64{pcfg.PRTBytes, pcfg.PCTBytes}
		err = errors.Join(pcfg.PRTc().Validate(), pcfg.PCTc().Validate())
	case SchemePoM:
		pcfg := pom.DefaultConfig().Scale(cfg.Scale)
		install = func(ctl *hmc.Controller) hmc.Manager { return pom.New(ctl, pcfg) }
		tables = []uint64{pcfg.RemapTableBytes}
		err = pcfg.SRC().Validate()
	case SchemeMemPod:
		mcfg := mempod.DefaultConfig().Scale(cfg.Scale)
		install = func(ctl *hmc.Controller) hmc.Manager { return mempod.New(ctl, mcfg) }
		tables = []uint64{mcfg.RemapTableBytes}
		err = mcfg.RemapCache().Validate()
	default:
		err = fmt.Errorf("unknown scheme %q", cfg.Scheme)
	}
	if err != nil {
		return nil, nil, err
	}
	return install, tables, nil
}

// memoryAt returns the physical memory of a machine scale times smaller
// than the paper's 512MB of DRAM and 4GB of NVM.
func memoryAt(scale int) mem.Map {
	return mem.Map{DRAMBytes: (512 << 20) / uint64(scale), NVMBytes: (4 << 30) / uint64(scale)}
}

// checkFits reports whether memoryAt(scale) holds a run whose scheme first
// reserves tables (in bytes) in DRAM, and whose cores then map feet bytes
// each, with their page tables, anywhere: first-touch placement falls back
// to the DRAM it withholds for page tables once NVM is full.
func checkFits(scale int, tables, feet []uint64) error {
	layout := memoryAt(scale)
	var meta, need uint64
	for _, b := range tables {
		meta += (b + mem.PageSize - 1) / mem.PageSize
	}
	need = meta
	for _, f := range feet {
		need += f/mem.PageSize + mem.TablesFor(workload.VABase, f)
	}
	if meta > layout.DRAMPages() || need > layout.DRAMPages()+layout.NVMPages() {
		return fmt.Errorf("scale %d leaves %d DRAM and %d NVM frames, too few for the run's %d frames (%d of them controller tables, in DRAM)",
			scale, layout.DRAMPages(), layout.NVMPages(), need, meta)
	}
	return nil
}

// preTouch maps every process's footprint (pid i+1 touches feet[i] bytes)
// up front, interleaved round-robin across processes — the placement a
// concurrent first-touch run converges to after the paper's
// 1.5B-instruction warm-up. Early (usually hottest) pages land in DRAM;
// the remainder spills to NVM.
func preTouch(osm *mem.OS, feet []uint64) error {
	var maxPages uint64
	for _, f := range feet {
		maxPages = max(maxPages, f/mem.PageSize)
	}
	for off := uint64(0); off < maxPages; off++ {
		va := workload.VABase + mem.VAddr(off*mem.PageSize)
		for i, f := range feet {
			if off < f/mem.PageSize {
				as, _ := osm.Process(i + 1)
				if err := as.Prefault(va); err != nil {
					return fmt.Errorf("sim: pre-touching the footprint: %w", err)
				}
			}
		}
	}
	return nil
}

// scaleCache divides a cache size by scale, keeping it a power-of-two
// multiple of floor bytes.
func scaleCache(size, scale int, floor int) int {
	s := size / scale
	if s < floor {
		s = floor
	}
	// round down to a power of two so set counts stay powers of two
	p := floor
	for p*2 <= s {
		p *= 2
	}
	return p
}

// cacheConfigs returns the L1, L2 and L3 configs of a memory system scale
// times smaller than the paper's.
func cacheConfigs(scale int) (l1, l2, l3 cache.Config) {
	l1, l2, l3 = cache.L1Config(), cache.L2Config(), cache.L3Config()
	l1.SizeBytes = scaleCache(l1.SizeBytes, scale, 4<<10)
	l2.SizeBytes = scaleCache(l2.SizeBytes, scale, 16<<10)
	l3.SizeBytes = scaleCache(l3.SizeBytes, scale, 64<<10)
	return l1, l2, l3
}

func scaleCount(n, scale, ways int) int {
	s := n / scale
	if s < ways*2 {
		s = ways * 2
	}
	return s
}

// cores returns the profile each core runs — a mix's members, or up to
// MaxCores instances of one benchmark — and the bytes it touches: the
// profile's footprint divided by the (normalised) scale, at least 64 pages.
func (cfg Config) cores() ([]workload.Profile, []uint64, error) {
	var profiles []workload.Profile
	if m, ok := workload.MixByName(cfg.Workload); ok {
		for _, name := range m.Members {
			p, err := workload.ProfileByName(name)
			if err != nil {
				return nil, nil, err
			}
			profiles = append(profiles, p)
		}
	} else {
		p, err := workload.ProfileByName(cfg.Workload)
		if err != nil {
			return nil, nil, fmt.Errorf("workload %q is neither a benchmark nor a mix", cfg.Workload)
		}
		n := p.Instances
		if cfg.MaxCores > 0 && n > cfg.MaxCores {
			n = cfg.MaxCores
		}
		for i := 0; i < n; i++ {
			profiles = append(profiles, p)
		}
	}
	feet := make([]uint64, len(profiles))
	for i, p := range profiles {
		feet[i] = max(uint64(p.FootprintMB)<<20/uint64(cfg.Scale), 64*mem.PageSize)
	}
	return profiles, feet, nil
}

// maxRunEvents bounds a single phase against event-loop bugs.
const maxRunEvents = 5_000_000_000

// runPhase runs every core to the given *additional* instruction budget and
// drains the machine.
func (s *System) runPhase(instr uint64) {
	s.runPhaseOpt(instr, true)
}

// runPhaseOpt is runPhase with the final drain optional: the sampled
// scheduler chains warm-up into window without draining, so a window opens
// under the queue occupancy and in-flight swap traffic the warm-up built up
// rather than on an artificially quiesced machine.
func (s *System) runPhaseOpt(instr uint64, drain bool) {
	if instr == 0 {
		return
	}
	s.doneCores = 0
	n := len(s.Cores)
	for _, c := range s.Cores {
		target := c.Stats().Instructions + instr
		c.RunTo(target, func(*cpu.Core) { s.doneCores++ })
	}
	var steps uint64
	for s.doneCores < n {
		if steps&abortCheckMask == 0 {
			s.checkAbort()
		}
		steps++
		if !s.Sim.Step() {
			panic("sim: event queue drained before cores finished")
		}
	}
	if drain {
		// Let in-flight swaps and writebacks settle so stats are consistent.
		// Stepped manually (rather than Sim.Drain) so the abort flag is
		// polled; the event order and the runaway bound are Drain's exactly.
		fired0 := s.Sim.Fired()
		var dsteps uint64
		for s.Sim.Step() {
			if dsteps&abortCheckMask == 0 {
				s.checkAbort()
			}
			dsteps++
			if s.Sim.Fired()-fired0 > maxRunEvents {
				panic("engine: Drain exceeded maxEvents; runaway event loop?")
			}
		}
	}
}

// resetStats zeroes every statistic after warm-up.
func (s *System) resetStats() {
	s.att.Reset() // nil-safe: no-op without cycle attribution
	if !s.pmCleared {
		// The pagemap's measured epoch opens at the FIRST reset and then
		// accumulates: sampled mode resets the per-window sinks before every
		// window, but per-page churn/flap history must span the whole run.
		s.pm.Reset() // nil-safe
		s.pmCleared = true
	}
	s.Ctl.ResetStats()
	s.led.Reset() // nil-safe: no-op without the provenance ledger
	s.L3.ResetStats()
	for i, c := range s.Cores {
		c.MMU().ResetStats()
		c.L1().ResetStats()
		s.L2s[i].ResetStats()
		c.MarkEpoch()
	}
}

// timelineCounters snapshots the cumulative counters the epoch timeline
// differentiates into per-interval samples. Allocation-free.
func (s *System) timelineCounters() obs.TimelineCounters {
	var instr uint64
	for _, c := range s.Cores {
		instr += c.Stats().Instructions
	}
	cs := s.Ctl.Stats()
	return obs.TimelineCounters{
		Cycle:          s.Sim.Now(),
		Instructions:   instr,
		SwapsCompleted: s.completedSwaps(),
		SwapsInFlight:  s.Ctl.Engine.Busy(),
		ServedDRAM:     cs.ServedDRAM,
		ServedNVM:      cs.ServedNVM,
		ServedBuf:      cs.ServedBuf,
		DRAMQueue:      s.Ctl.DRAM.QueueOccupancy(),
		NVMQueue:       s.Ctl.NVM.QueueOccupancy(),
	}
}

// totalInstructions sums the cores' retired-instruction counters; like
// completedSwaps it resets with the stats epoch, so only deltas taken within
// a phase are meaningful.
func (s *System) totalInstructions() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Stats().Instructions
	}
	return n
}

// completedSwaps returns the swap engine's completed op count since the
// last stats reset — whatever the scheme, the numerator of
// Results.SwapsPerKI and the timeline's swap counter, so the two always
// agree.
func (s *System) completedSwaps() uint64 { return s.Ctl.Engine.Stats().OpsCompleted }

// Watchdog thresholds: with the default timing parameters a run that is
// alive moves data at least every few hundred cycles, so 25 consecutive
// silent windows of 200k cycles (5M cycles total) leave orders of magnitude
// of headroom over any legitimate quiet stretch while aborting a wedged run
// long before maxRunEvents would.
const (
	watchdogWindow  = 200_000
	watchdogStrikes = 25
)

// progress is the watchdog's monotone liveness counter: retired instructions
// plus memory-module traffic. The drain phase retires no instructions but
// still moves swap and writeback data, so either term advancing counts.
func (s *System) progress() uint64 {
	var p uint64
	for _, c := range s.Cores {
		p += c.Stats().Instructions
	}
	ds, ns := s.Ctl.DRAM.Stats(), s.Ctl.NVM.Stats()
	return p + ds.Reads + ds.Writes + ns.Reads + ns.Writes
}

// Run executes warm-up then measurement and returns the results.
//
// Run never panics: any panic from the event loop (a component invariant, a
// walk failure, a watchdog stall) is recovered into a *RunError carrying the
// run's identity, the cycle and queue state at death, the stack, and a
// rendered crashdump — so a campaign harness can report the run as failed
// and keep going. With Cfg.Audit set, a liveness watchdog rides the engine
// clock during the run and CheckInvariants audits the quiesced system after
// it; audit violations also surface as a *RunError.
func (s *System) Run() (res Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = Results{}, s.recoverRunError(p, debug.Stack())
		}
	}()
	if s.Cfg.Audit {
		s.wd = check.NewWatchdog(watchdogWindow, watchdogStrikes, s.progress, s.Sim.Now)
		s.Sim.SetWatchdog(s.wd.Window(), s.wd.Tick)
		defer s.Sim.SetWatchdog(0, nil)
	}
	if s.Cfg.Sample > 0 {
		return s.runSampled()
	}
	if s.Cfg.Warmup > 0 {
		s.runPhase(s.Cfg.Warmup)
		s.resetStats()
	}
	if s.Timeline != nil {
		// Arm after warm-up so samples cover exactly the measured epoch.
		s.Timeline.Start()
		s.Sim.SetTick(s.Timeline.Every, s.Timeline.Tick)
	}
	start := s.Sim.Now()
	firedStart := s.Sim.Fired()
	s.runPhase(s.Cfg.InstrPerCore)
	if s.PageSeer != nil {
		s.PageSeer.Finish()
	}
	if s.Timeline != nil {
		s.Sim.SetTick(0, nil)
		s.Timeline.Finish()
	}
	if err := s.Ctl.VerifyIntegrity(); err != nil {
		return Results{}, s.failRun(fmt.Errorf("sim: integrity check failed after run: %w", err), nil)
	}
	if s.Cfg.Audit {
		if err := s.CheckInvariants(); err != nil {
			return Results{}, s.failRun(err, nil)
		}
	}
	r := s.collect(start)
	r.EventsFired = s.Sim.Fired() - firedStart
	return r, nil
}
