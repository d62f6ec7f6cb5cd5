// Package figures regenerates every table and figure of the PageSeer
// paper's evaluation (Section V) from simulation runs: the per-suite
// service and effectiveness breakdowns (Figures 7-8), prefetch-swap
// accuracy and composition (Figures 9-10), the bandwidth-heuristic swap
// rates (Figure 11), page-walk statistics (Figure 12), PRTc waiting time
// versus PoM (Figure 13), the headline IPC/AMMAT comparison (Figure 14),
// and the PageSeer-NoCorr ablation of Section V-C.
//
// Each (workload, scheme) run is an independent, deterministically-seeded
// sim.System, so a campaign is embarrassingly parallel. The Runner
// exploits that at the campaign level, fanning whole runs across a worker
// pool (Options.Parallelism); each run executes on the serial engine.
// Parallel and serial campaigns produce byte-identical figures.
package figures

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pageseer/internal/sim"
	"pageseer/internal/workload"
)

// Options configures a harness campaign.
type Options struct {
	// Config is the run template: every run copies it and sets only
	// Scheme, Workload and DisableBWOpt from its key.
	Config sim.Config
	// Workloads selects a subset (nil = all 26 of Table III).
	Workloads []string
	// Progress, when non-nil, receives one line per completed run.
	// Writes are serialised, and during a fan-out (RunKeys, Prefetch,
	// RunAll) they are emitted in key order regardless of which worker
	// finishes first.
	Progress io.Writer
	// Parallelism is the worker-pool width of a fan-out
	// (0 = runtime.GOMAXPROCS(0)). It fans whole runs out; each run
	// executes on the serial engine.
	Parallelism int
	// RunTimeout, when > 0, bounds each run's wall-clock time: a run that
	// exceeds it is aborted at the next event boundary and fails with a
	// *sim.RunError (a campaign gap), never hanging the campaign.
	RunTimeout time.Duration
}

// DefaultOptions runs the full 26-workload campaign at the default
// configuration.
func DefaultOptions() Options {
	return Options{
		Config:    sim.DefaultConfig(),
		Workloads: workload.AllWorkloadNames(),
	}
}

// QuickOptions runs a reduced campaign (subset of workloads, smaller
// budgets, capped cores) for benches and smoke checks.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Config.InstrPerCore = 400_000
	o.Config.Warmup = 250_000
	o.Config.MaxCores = 4
	o.Workloads = []string{"lbm", "GemsFDTD", "miniFE", "barnes", "mix6"}
	return o
}

// Key names one run: a workload under a scheme, with PageSeer's Swap
// Driver bandwidth heuristic switched off when DisableBW is set.
type Key struct {
	Workload  string
	Scheme    sim.Scheme
	DisableBW bool
}

// Label is the run's scheme as reports print it, "-nobw" appended when the
// bandwidth heuristic is off.
func (k Key) Label() string {
	if k.DisableBW {
		return string(k.Scheme) + "-nobw"
	}
	return string(k.Scheme)
}

// Config returns base with the key's workload, scheme and bandwidth
// heuristic set: the configuration the key's run simulates.
func (k Key) Config(base sim.Config) sim.Config {
	base.Scheme, base.Workload, base.DisableBWOpt = k.Scheme, k.Workload, k.DisableBW
	return base
}

// runEntry is one memoised run. done closes when res and err are final;
// the entry doubles as a per-key singleflight so two figures requesting
// the same run never simulate it twice, even concurrently.
type runEntry struct {
	done chan struct{}
	res  sim.Results
	err  error
}

// Runner executes and memoises simulation runs so every figure sharing a
// configuration reuses the same measurement. All methods are safe for
// concurrent use.
type Runner struct {
	opts Options

	mu    sync.Mutex // guards cache and began (the map/slice, not the entries)
	cache map[Key]*runEntry
	// began records every key in the order its run first started, so
	// Failures also surfaces runs outside the canonical campaign key set
	// (static CPI-stack baselines, the schemes pageseer-sim runs).
	began []Key

	// Ordered progress emission during Prefetch/RunAll: lines buffer in
	// pending and flush in order[next:] as the completed prefix grows.
	progressMu sync.Mutex
	order      []Key
	pending    map[Key]string
	next       int

	// Graceful shutdown: Stop flips stopped, after which no new run starts
	// (they fail fast with ErrStopped) while in-flight runs finish
	// normally. AbortActive additionally interrupts the in-flight runs at
	// their next event boundary.
	stopped  atomic.Bool
	activeMu sync.Mutex
	active   map[*sim.System]struct{}
}

// ErrStopped is the error runs fail with when they were not yet started at
// the moment the campaign was stopped (Stop). It is a campaign-level error,
// not a run gap: Prefetch returns it so CLIs can exit non-zero with a
// stop message.
var ErrStopped = errors.New("figures: campaign stopped before this run started")

// Stop prevents any not-yet-started run from launching. In-flight runs
// finish normally; runs that have not begun fail fast with ErrStopped.
// Safe to call from a signal handler goroutine.
func (r *Runner) Stop() { r.stopped.Store(true) }

// Stopping reports whether Stop has been called.
func (r *Runner) Stopping() bool { return r.stopped.Load() }

// AbortActive interrupts every in-flight run at its next event boundary;
// each aborted run fails with a *sim.RunError carrying reason. Callers
// normally Stop() first so no queued run starts in their place.
func (r *Runner) AbortActive(reason string) {
	r.activeMu.Lock()
	defer r.activeMu.Unlock()
	for sys := range r.active {
		sys.Abort(reason)
	}
}

// trackActive registers (or unregisters) an in-flight system so
// AbortActive can reach it.
func (r *Runner) trackActive(sys *sim.System, on bool) {
	r.activeMu.Lock()
	defer r.activeMu.Unlock()
	if on {
		r.active[sys] = struct{}{}
	} else {
		delete(r.active, sys)
	}
}

// NewRunner builds a runner for the given options.
func NewRunner(opts Options) *Runner {
	if len(opts.Workloads) == 0 {
		opts.Workloads = workload.AllWorkloadNames()
	}
	return &Runner{
		opts:   opts,
		cache:  make(map[Key]*runEntry),
		active: make(map[*sim.System]struct{}),
	}
}

// Parallelism returns the effective worker-pool width.
func (r *Runner) Parallelism() int {
	if r.opts.Parallelism > 0 {
		return r.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Run returns the (cached) results for one workload under one scheme.
func (r *Runner) Run(wl string, scheme sim.Scheme) (sim.Results, error) {
	return r.run(Key{Workload: wl, Scheme: scheme}, nil)
}

func (r *Runner) run(k Key, sink func(*sim.System) error) (sim.Results, error) {
	r.mu.Lock()
	if e, ok := r.cache[k]; ok {
		r.mu.Unlock()
		<-e.done // another goroutine owns the run; wait it out
		return e.res, e.err
	}
	e := &runEntry{done: make(chan struct{})}
	r.cache[k] = e
	r.began = append(r.began, k)
	r.mu.Unlock()

	defer func() {
		close(e.done)
		r.emitProgress(k, e)
	}()

	// Graceful shutdown: once stopped, no new run starts. (In-flight runs
	// are past this check and finish normally.)
	if r.stopped.Load() {
		e.err = ErrStopped
		return sim.Results{}, e.err
	}

	e.res, e.err = r.simulate(k, sink)
	return e.res, e.err
}

// simulateHook, when set (tests only), observes every run configuration
// before the system is built — and may panic, standing in for a mid-campaign
// crash. It runs inside simulate's recovery scope, so the worker boundary
// converts the panic into that run's *sim.RunError.
var simulateHook func(sim.Config)

// isGap reports whether err is one run's structured failure (*sim.RunError),
// which campaigns absorb as a gap. Anything else — unknown workload, invalid
// configuration — is a campaign-level error and still aborts.
func isGap(err error) bool {
	var re *sim.RunError
	return errors.As(err, &re)
}

// each calls row with wl's results under keys, in keys' order (a key's
// Workload is ignored), for every workload in wls whose runs all
// succeeded. A workload's runs stop at its first gap (a *sim.RunError), so
// its later keys are never simulated and row skips it; any other error is
// the campaign's and aborts the iteration. Every call to row reuses one
// results slice, so row may not keep it.
func (r *Runner) each(wls []string, keys []Key, row func(wl string, res []sim.Results)) error {
	res := make([]sim.Results, len(keys))
next:
	for _, wl := range wls {
		for i, k := range keys {
			k.Workload = wl
			var err error
			if res[i], err = r.run(k, nil); err != nil {
				if isGap(err) {
					continue next
				}
				return err
			}
		}
		row(wl, res)
	}
	return nil
}

// eachRun calls row with the result of every successful (workload, scheme)
// run of the campaign, workload-major, schemes in the order given.
func (r *Runner) eachRun(schemes []sim.Scheme, row func(wl string, sch sim.Scheme, res sim.Results)) error {
	for _, wl := range r.opts.Workloads {
		for _, sch := range schemes {
			if err := r.each([]string{wl}, []Key{{Scheme: sch}}, func(_ string, res []sim.Results) {
				row(wl, sch, res[0])
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// simulate executes one run and hands the finished system to sink, if
// any; it holds no Runner locks, so independent keys proceed in parallel.
// It is the campaign's isolation boundary: sim.Run already converts in-run
// panics to *sim.RunError, and the recover here catches anything outside
// that net (construction, the sink, the test hook), so one dying run can
// never unwind a worker and abort the campaign. The run timeout covers the
// sink too.
func (r *Runner) simulate(k Key, sink func(*sim.System) error) (res sim.Results, err error) {
	cfg := k.Config(r.opts.Config)
	defer func() {
		if p := recover(); p != nil {
			cause, ok := p.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", p)
			}
			stack := debug.Stack()
			res, err = sim.Results{}, &sim.RunError{
				Scheme:   k.Scheme,
				Workload: k.Workload,
				Seed:     cfg.Seed,
				Cause:    cause,
				Stack:    string(stack),
				Crashdump: fmt.Sprintf(
					"pageseer crashdump\nrun: workload=%s scheme=%s seed=%d scale=%d\ncause: %v\n(run died outside the event loop; no system state to dump)\n\nstack:\n%s",
					k.Workload, k.Label(), cfg.Seed, cfg.Scale, cause, stack),
			}
		}
	}()
	if simulateHook != nil {
		simulateHook(cfg)
	}
	sys, err := sim.Build(cfg)
	if err != nil {
		return sim.Results{}, err
	}
	r.trackActive(sys, true)
	defer r.trackActive(sys, false)
	if d := r.opts.RunTimeout; d > 0 {
		timer := time.AfterFunc(d, func() {
			sys.Abort(fmt.Sprintf("wall-clock run timeout %s exceeded", d))
		})
		defer timer.Stop()
	}
	res, err = sys.Run()
	if err != nil {
		return sim.Results{}, fmt.Errorf("figures: %s/%s: %w", k.Workload, k.Scheme, err)
	}
	if sink != nil {
		if err := sink(sys); err != nil {
			return sim.Results{}, err
		}
	}
	return res, nil
}

// emitProgress writes one run's progress line. Outside a fan-out it goes
// out immediately; during one it buffers until every earlier key has
// reported, so worker interleaving never reorders the log.
func (r *Runner) emitProgress(k Key, e *runEntry) {
	if r.opts.Progress == nil {
		return
	}
	var line string
	switch {
	case e.err == nil:
		d, n, b := e.res.ServiceBreakdown()
		line = fmt.Sprintf("ran %-12s %-16s ipc=%.3f ammat=%.0f dram/nvm/buf=%.2f/%.2f/%.3f\n",
			k.Workload, k.Label(), e.res.IPC, e.res.AMMAT, d, n, b)
	case errors.Is(e.err, ErrStopped):
		// A stopped campaign skips its remaining runs silently; the CLI
		// prints one stop message instead of a FAIL line per skipped run.
	default:
		line = fmt.Sprintf("FAIL %-12s %-16s %v\n", k.Workload, k.Label(), e.err)
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	if r.order == nil {
		if line != "" {
			fmt.Fprint(r.opts.Progress, line)
		}
		return
	}
	if r.pending == nil {
		r.pending = make(map[Key]string)
	}
	r.pending[k] = line
	for r.next < len(r.order) {
		l, ok := r.pending[r.order[r.next]]
		if !ok {
			break
		}
		if l != "" {
			fmt.Fprint(r.opts.Progress, l)
		}
		delete(r.pending, r.order[r.next])
		r.next++
	}
}

// Needs selects which run families a figure selection requires beyond the
// always-needed PageSeer runs.
type Needs struct {
	Baselines bool // PoM and MemPod (Figures 7, 8, 13, 14)
	NoCorr    bool // PageSeer-NoCorr (Section V-C ablation)
	NoBW      bool // PageSeer without the BW heuristic (Figure 11)
}

// AllNeeds is the full campaign: every family every figure draws on.
func AllNeeds() Needs { return Needs{Baselines: true, NoCorr: true, NoBW: true} }

// keys enumerates the campaign key set for n in canonical (workload-major)
// order — the order progress lines and Metrics follow.
func (r *Runner) keys(n Needs) []Key {
	var ks []Key
	for _, wl := range r.opts.Workloads {
		if n.Baselines {
			ks = append(ks, Key{Workload: wl, Scheme: sim.SchemePoM}, Key{Workload: wl, Scheme: sim.SchemeMemPod})
		}
		ks = append(ks, Key{Workload: wl, Scheme: sim.SchemePageSeer})
		if n.NoCorr {
			ks = append(ks, Key{Workload: wl, Scheme: sim.SchemePageSeerNoCorr})
		}
		if n.NoBW {
			ks = append(ks, Key{Workload: wl, Scheme: sim.SchemePageSeer, DisableBW: true})
		}
	}
	return ks
}

// RunAll pre-executes the campaign's full key set across the worker pool.
// Figures built afterwards hit the cache.
func (r *Runner) RunAll() error { return r.Prefetch(AllNeeds()) }

// Prefetch fans the selected run families across the worker pool (see
// RunKeys). Per-run failures (*sim.RunError) are absorbed — they surface as
// gaps in the figures and through Failures() — so one crashed run cannot
// abort the campaign. The first campaign-level error (unknown workload,
// invalid configuration, ErrStopped) in campaign order is returned.
func (r *Runner) Prefetch(n Needs) error {
	_, errs := r.RunKeys(r.keys(n), nil)
	for _, err := range errs {
		if err != nil && !isGap(err) {
			return err
		}
	}
	return nil
}

// RunKeys fans keys across Parallelism workers and returns each key's
// results and error, in keys' order. Results land in the cache; every
// worker finishes regardless of failures, and keys not yet dispatched when
// the runner is stopped fail with ErrStopped. sink, when non-nil, receives
// the finished system of every run this call simulates (not one already
// cached), inside the run's recovery and timeout scope; a sink error fails
// that run.
func (r *Runner) RunKeys(keys []Key, sink func(*sim.System) error) ([]sim.Results, []error) {
	results := make([]sim.Results, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return results, errs
	}

	// Install ordered progress for keys that have not yet reported.
	// Already-completed entries emitted their lines when they ran.
	r.mu.Lock()
	todo := keys[:0:0]
	for _, k := range keys {
		e, ok := r.cache[k]
		done := false
		if ok {
			select {
			case <-e.done:
				done = true
			default:
			}
		}
		if !done {
			todo = append(todo, k)
		}
	}
	r.mu.Unlock()
	r.progressMu.Lock()
	r.order, r.pending, r.next = todo, nil, 0
	r.progressMu.Unlock()
	defer func() {
		r.progressMu.Lock()
		r.order, r.pending, r.next = nil, nil, 0
		r.progressMu.Unlock()
	}()

	par := min(r.Parallelism(), len(keys))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = r.run(keys[i], sink)
			}
		}()
	}
	for i := range keys {
		if r.stopped.Load() {
			// Stopped mid-campaign: the rest of the keys never start.
			for j := i; j < len(keys); j++ {
				errs[j] = ErrStopped
			}
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, errs
}

// begun lists every key the runner has begun: the canonical campaign keys
// first, then the others (static CPI-stack baselines, the schemes
// pageseer-sim runs) in the order they began.
func (r *Runner) begun() []Key {
	r.mu.Lock()
	defer r.mu.Unlock()
	ks := make([]Key, 0, len(r.began))
	seen := make(map[Key]bool, len(r.began))
	for _, k := range append(r.keys(AllNeeds()), r.began...) {
		if _, ok := r.cache[k]; ok && !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	return ks
}

// entry returns k's memoised run once it has finished.
func (r *Runner) entry(k Key) (*runEntry, bool) {
	r.mu.Lock()
	e, ok := r.cache[k]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		return e, true
	default:
		return nil, false
	}
}

// Finished counts the runs that have ended, successful or failed; a run
// the campaign's stop kept from starting is not one.
func (r *Runner) Finished() int {
	n := 0
	for _, k := range r.begun() {
		if e, ok := r.entry(k); ok && !errors.Is(e.err, ErrStopped) {
			n++
		}
	}
	return n
}

// RunFailure is one failed campaign run, for end-of-campaign reporting.
type RunFailure struct {
	Workload string
	Scheme   string // display label (includes the -nobw variant)
	Err      *sim.RunError
}

// Failures returns every finished run that failed with a *sim.RunError:
// canonical campaign keys first, then the others in the order they began.
// CLIs render these after their output and use the embedded crashdumps for
// triage files.
func (r *Runner) Failures() []RunFailure {
	var fs []RunFailure
	for _, k := range r.begun() {
		e, ok := r.entry(k)
		var re *sim.RunError
		if ok && errors.As(e.err, &re) {
			fs = append(fs, RunFailure{Workload: k.Workload, Scheme: k.Label(), Err: re})
		}
	}
	return fs
}

// suiteOrder fixes the row order of per-suite figures.
var suiteOrder = []string{"SPEC", "Splash-3", "CORAL", "Mixes"}

// eachSuite calls f with each suite's campaign workloads, in suiteOrder,
// skipping a suite with none; f's error ends the iteration.
func (r *Runner) eachSuite(f func(suite string, wls []string) error) error {
	for _, suite := range suiteOrder {
		var wls []string
		for _, w := range r.opts.Workloads {
			if workload.Suite(w) == suite {
				wls = append(wls, w)
			}
		}
		if len(wls) == 0 {
			continue
		}
		if err := f(suite, wls); err != nil {
			return err
		}
	}
	return nil
}
