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

	"pageseer/internal/check"
	"pageseer/internal/sim"
	"pageseer/internal/workload"
)

// Options configures a harness campaign.
type Options struct {
	// Scale, InstrPerCore, Warmup, Seed mirror sim.Config.
	Scale        int
	InstrPerCore uint64
	Warmup       uint64
	Seed         uint64
	// Workloads selects a subset (nil = all 26 of Table III).
	Workloads []string
	// MaxCores caps core counts for quick runs (0 = paper counts).
	MaxCores int
	// Progress, when non-nil, receives one line per completed run.
	// Writes are serialised, and during Prefetch/RunAll they are emitted
	// in campaign order regardless of which worker finishes first.
	Progress io.Writer
	// Parallelism is the worker-pool width for Prefetch/RunAll
	// (0 = runtime.GOMAXPROCS(0)). It fans whole runs out; each run
	// executes on the serial engine.
	Parallelism int

	// Audit mirrors sim.Config.Audit: every campaign run carries the
	// liveness watchdog and the end-of-run invariant audit.
	Audit bool
	// Ledger mirrors sim.Config.Obs.Ledger: every campaign run records
	// swap provenance, filling Results.Effectiveness for the
	// effectiveness table and the introspection server.
	Ledger bool
	// CPI mirrors sim.Config.Obs.CPI: every campaign run carries the
	// cycle-attribution layer, filling Results.CPIStack for the CPI-stack
	// table and the per-component metrics on the introspection server.
	CPI bool
	// PageMap mirrors sim.Config.Obs.PageMap: every campaign run carries
	// the address-space telemetry table, filling Results.PageMap for the
	// churn table and the wear/flap/hot-set metrics on the introspection
	// server.
	PageMap bool
	// Faults mirrors sim.Config.Faults: every campaign run executes under
	// the given deterministic fault-injection plan.
	Faults check.FaultPlan
	// Sample, SampleWindow, SampleWarmup mirror the sim.Config sampling
	// geometry: when Sample > 0 every campaign run executes the SMARTS-style
	// sampled schedule (functional fast-forward between detailed windows)
	// instead of the full detailed reference. Results carry the geometry in
	// Results.Sampling.
	Sample       uint64
	SampleWindow uint64
	SampleWarmup uint64
	// Retries re-executes a run up to Retries extra times when it fails
	// with a *sim.RunError, with deterministic capped backoff
	// (min(250ms·2ⁿ, 5s)), before recording it as a campaign gap (for
	// flaky-host triage; a deterministic failure fails every attempt
	// identically). Failures() reports the attempt count.
	Retries int
	// RunTimeout, when > 0, bounds each run's wall-clock time: a run that
	// exceeds it is aborted at the next event boundary and fails with a
	// *sim.RunError (a campaign gap, retried like any other), never
	// hanging the campaign.
	RunTimeout time.Duration
	// Journal, when non-nil, makes the campaign crash-safe: every
	// completed run is appended (and fsynced) to the journal, and runs
	// already journaled are replayed from it instead of re-executed. See
	// OpenJournal.
	Journal *Journal
}

// DefaultOptions runs the full 26-workload campaign at the default scale.
func DefaultOptions() Options {
	d := sim.DefaultConfig()
	return Options{
		Scale:        d.Scale,
		InstrPerCore: d.InstrPerCore,
		Warmup:       d.Warmup,
		Seed:         1,
		Workloads:    workload.AllWorkloadNames(),
	}
}

// QuickOptions runs a reduced campaign (subset of workloads, smaller
// budgets, capped cores) for benches and smoke checks.
func QuickOptions() Options {
	o := DefaultOptions()
	o.InstrPerCore = 400_000
	o.Warmup = 250_000
	o.MaxCores = 4
	o.Workloads = []string{"lbm", "GemsFDTD", "miniFE", "barnes", "mix6"}
	return o
}

type runKey struct {
	workload  string
	scheme    sim.Scheme
	disableBW bool
}

// runEntry is one memoised run. done closes when res/err/wall are final;
// the entry doubles as a per-key singleflight so two figures requesting
// the same run never simulate it twice, even concurrently.
type runEntry struct {
	done chan struct{}
	res  sim.Results
	err  error
	wall time.Duration
	// attempts counts simulation executions (1 + retries taken); replayed
	// journal entries carry the count recorded when the run first completed.
	attempts int
	// fromJournal marks entries replayed from the campaign journal rather
	// than simulated in this process.
	fromJournal bool
}

// Runner executes and memoises simulation runs so every figure sharing a
// configuration reuses the same measurement. All methods are safe for
// concurrent use.
type Runner struct {
	opts Options

	mu    sync.Mutex // guards cache and began (the map/slice, not the entries)
	cache map[runKey]*runEntry
	// began records every key in the order its run first started, so the
	// introspection snapshot can also surface runs outside the canonical
	// campaign key set (static CPI-stack baselines, ad-hoc schemes driven
	// through pageseer-sim -serve).
	began []runKey

	// Ordered progress emission during Prefetch/RunAll: lines buffer in
	// pending and flush in order[next:] as the completed prefix grows.
	progressMu sync.Mutex
	order      []runKey
	pending    map[runKey]string
	next       int

	// Graceful shutdown: Stop flips stopped, after which no new run starts
	// (they fail fast with ErrStopped) while in-flight runs finish and
	// journal normally. AbortActive additionally interrupts the in-flight
	// runs at their next event boundary.
	stopped  atomic.Bool
	activeMu sync.Mutex
	active   map[*sim.System]struct{}
}

// ErrStopped is the error runs fail with when they were not yet started at
// the moment the campaign was stopped (Stop). It is a campaign-level error,
// not a run gap: Prefetch returns it so CLIs can exit non-zero with a
// resume hint.
var ErrStopped = errors.New("figures: campaign stopped before this run started")

// Stop prevents any not-yet-started run from launching. In-flight runs
// finish normally (and are journaled); runs that have not begun fail fast
// with ErrStopped. Safe to call from a signal handler goroutine.
func (r *Runner) Stop() { r.stopped.Store(true) }

// Stopping reports whether Stop has been called.
func (r *Runner) Stopping() bool { return r.stopped.Load() }

// AbortActive interrupts every in-flight run at its next event boundary;
// each aborted run fails with a *sim.RunError carrying reason. Callers
// normally Stop() first so the aborted runs are not retried into a stopped
// campaign.
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
		cache:  make(map[runKey]*runEntry),
		active: make(map[*sim.System]struct{}),
	}
}

// Workloads returns the campaign's workload list.
func (r *Runner) Workloads() []string { return r.opts.Workloads }

// Parallelism returns the effective worker-pool width.
func (r *Runner) Parallelism() int {
	if r.opts.Parallelism > 0 {
		return r.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Run returns the (cached) results for one workload under one scheme.
func (r *Runner) Run(wl string, scheme sim.Scheme) (sim.Results, error) {
	return r.run(wl, scheme, false)
}

// RunNoBWOpt returns PageSeer results with the Swap Driver bandwidth
// heuristic disabled (Figure 11's second bar).
func (r *Runner) RunNoBWOpt(wl string) (sim.Results, error) {
	return r.run(wl, sim.SchemePageSeer, true)
}

func (r *Runner) run(wl string, scheme sim.Scheme, disableBW bool) (sim.Results, error) {
	k := runKey{workload: wl, scheme: scheme, disableBW: disableBW}
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

	// Replay from the journal: a run completed by an earlier (crashed or
	// interrupted) campaign is not re-executed — unless its recorded
	// configuration no longer matches, which is refused outright rather
	// than silently mixing two campaigns' numbers.
	if j := r.opts.Journal; j != nil {
		if rec, ok := j.lookup(k); ok {
			want := configHash(r.configFor(k))
			if rec.ConfigHash != want {
				e.err = fmt.Errorf("journal: run %s/%s was recorded under config %s but this campaign resolves it to %s — the journal belongs to a different campaign; use a fresh -journal directory",
					k.workload, schemeLabel(k.scheme, k.disableBW), rec.ConfigHash, want)
				return sim.Results{}, e.err
			}
			e.res, e.attempts, e.fromJournal = rec.Results, rec.Attempts, true
			return e.res, nil
		}
	}

	// Graceful shutdown: once stopped, no new run starts. (In-flight runs
	// are past this check and finish normally.)
	if r.stopped.Load() {
		e.err = ErrStopped
		return sim.Results{}, e.err
	}

	start := time.Now()
	e.res, e.err = r.simulate(k)
	e.attempts = 1
	for e.err != nil && isGap(e.err) && e.attempts <= r.opts.Retries && !r.stopped.Load() {
		time.Sleep(retryBackoff(e.attempts))
		e.attempts++
		e.res, e.err = r.simulate(k)
	}
	e.wall = time.Since(start)
	if e.err == nil {
		if j := r.opts.Journal; j != nil {
			if jerr := j.record(k, configHash(r.configFor(k)), e.attempts, e.res); jerr != nil {
				// A journal that cannot persist is a campaign-level
				// failure: continuing would silently lose durability.
				e.err = jerr
				return sim.Results{}, e.err
			}
		}
	}
	return e.res, e.err
}

// retryBackoff is the deterministic capped backoff before retry n
// (1-based): 250ms, 500ms, 1s, ... capped at 5s.
func retryBackoff(n int) time.Duration {
	d := 250 * time.Millisecond
	for i := 1; i < n && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
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

// simulate executes one run; it holds no Runner locks, so independent keys
// proceed in parallel. It is the campaign's isolation boundary: sim.Run
// already converts in-run panics to *sim.RunError, and the recover here
// catches anything outside that net (construction, the test hook), so one
// dying run can never unwind a Prefetch worker and abort the campaign.
// configFor resolves one run key to its full sim.Config — the same
// resolution simulate executes and the journal hashes, so a journal record
// can be verified against exactly what would run.
func (r *Runner) configFor(k runKey) sim.Config {
	return sim.Config{
		Scheme:       k.scheme,
		Workload:     k.workload,
		Scale:        r.opts.Scale,
		InstrPerCore: r.opts.InstrPerCore,
		Warmup:       r.opts.Warmup,
		Seed:         r.opts.Seed,
		MaxCores:     r.opts.MaxCores,
		DisableBWOpt: k.disableBW,
		Audit:        r.opts.Audit,
		Faults:       r.opts.Faults,
		Sample:       r.opts.Sample,
		SampleWindow: r.opts.SampleWindow,
		SampleWarmup: r.opts.SampleWarmup,
		Obs:          sim.ObsOptions{Ledger: r.opts.Ledger, CPI: r.opts.CPI, PageMap: r.opts.PageMap},
	}
}

func (r *Runner) simulate(k runKey) (res sim.Results, err error) {
	cfg := r.configFor(k)
	defer func() {
		if p := recover(); p != nil {
			cause, ok := p.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", p)
			}
			stack := debug.Stack()
			res, err = sim.Results{}, &sim.RunError{
				Scheme:   k.scheme,
				Workload: k.workload,
				Seed:     cfg.Seed,
				Cause:    cause,
				Stack:    string(stack),
				Crashdump: fmt.Sprintf(
					"pageseer crashdump\nrun: workload=%s scheme=%s seed=%d scale=%d\ncause: %v\n(run died outside the event loop; no system state to dump)\n\nstack:\n%s",
					k.workload, schemeLabel(k.scheme, k.disableBW), cfg.Seed, cfg.Scale, cause, stack),
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
		return sim.Results{}, fmt.Errorf("figures: %s/%s: %w", k.workload, k.scheme, err)
	}
	return res, nil
}

// emitProgress writes one run's progress line. Outside a prefetch it goes
// out immediately; during one it buffers until every earlier campaign key
// has reported, so worker interleaving never reorders the log.
func (r *Runner) emitProgress(k runKey, e *runEntry) {
	if r.opts.Progress == nil {
		return
	}
	var line string
	switch {
	case e.err == nil && e.fromJournal:
		line = fmt.Sprintf("jrnl %-12s %-16s ipc=%.3f (replayed from journal)\n",
			k.workload, schemeLabel(k.scheme, k.disableBW), e.res.IPC)
	case e.err == nil:
		d, n, b := e.res.ServiceBreakdown()
		line = fmt.Sprintf("ran %-12s %-16s ipc=%.3f ammat=%.0f dram/nvm/buf=%.2f/%.2f/%.3f\n",
			k.workload, schemeLabel(k.scheme, k.disableBW), e.res.IPC, e.res.AMMAT, d, n, b)
	case errors.Is(e.err, ErrStopped):
		// A stopped campaign skips its remaining runs silently; the CLI
		// prints one resume hint instead of a FAIL line per skipped run.
	default:
		line = fmt.Sprintf("FAIL %-12s %-16s %v\n",
			k.workload, schemeLabel(k.scheme, k.disableBW), e.err)
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
		r.pending = make(map[runKey]string)
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
func (r *Runner) keys(n Needs) []runKey {
	var ks []runKey
	for _, wl := range r.opts.Workloads {
		if n.Baselines {
			ks = append(ks,
				runKey{workload: wl, scheme: sim.SchemePoM},
				runKey{workload: wl, scheme: sim.SchemeMemPod})
		}
		ks = append(ks, runKey{workload: wl, scheme: sim.SchemePageSeer})
		if n.NoCorr {
			ks = append(ks, runKey{workload: wl, scheme: sim.SchemePageSeerNoCorr})
		}
		if n.NoBW {
			ks = append(ks, runKey{workload: wl, scheme: sim.SchemePageSeer, disableBW: true})
		}
	}
	return ks
}

// RunAll pre-executes the campaign's full (workload, scheme, disableBW)
// key set across the worker pool. Figures built afterwards hit the cache.
func (r *Runner) RunAll() error { return r.Prefetch(AllNeeds()) }

// Prefetch fans the selected run families across Parallelism workers.
// Results land in the cache; every worker finishes regardless of failures.
// Per-run failures (*sim.RunError) are absorbed — they surface as gaps in
// the figures and through Failures() — so one crashed run cannot abort the
// campaign. The first campaign-level error (unknown workload, invalid
// configuration) in campaign order is returned.
func (r *Runner) Prefetch(n Needs) error {
	keys := r.keys(n)
	if len(keys) == 0 {
		return nil
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

	par := r.Parallelism()
	if par > len(keys) {
		par = len(keys)
	}
	jobs := make(chan int)
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				k := keys[i]
				_, errs[i] = r.run(k.workload, k.scheme, k.disableBW)
			}
		}()
	}
	for i := range keys {
		if r.stopped.Load() {
			// Stopped mid-campaign: the rest of the grid never starts.
			for j := i; j < len(keys); j++ {
				errs[j] = ErrStopped
			}
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil && !isGap(err) {
			return err
		}
	}
	return nil
}

// RunFailure is one failed campaign run, for end-of-campaign reporting.
type RunFailure struct {
	Workload string
	Scheme   string // display label (includes the -nobw variant)
	Attempts int    // simulation attempts made (1 + retries taken)
	Err      *sim.RunError
}

// Failures returns every completed campaign run that failed with a
// *sim.RunError, in canonical campaign order. CLIs render these after the
// figures and use the embedded crashdumps for triage files.
func (r *Runner) Failures() []RunFailure {
	var fs []RunFailure
	for _, k := range r.keys(AllNeeds()) {
		r.mu.Lock()
		e, ok := r.cache[k]
		r.mu.Unlock()
		if !ok {
			continue
		}
		select {
		case <-e.done:
		default:
			continue // still in flight
		}
		var re *sim.RunError
		if e.err != nil && errors.As(e.err, &re) {
			fs = append(fs, RunFailure{
				Workload: k.workload,
				Scheme:   schemeLabel(k.scheme, k.disableBW),
				Attempts: e.attempts,
				Err:      re,
			})
		}
	}
	return fs
}

func schemeLabel(s sim.Scheme, disableBW bool) string {
	if s == sim.SchemePageSeer && disableBW {
		return "pageseer-nobw"
	}
	return string(s)
}

// suiteOrder fixes the row order of per-suite figures.
var suiteOrder = []string{"SPEC", "Splash-3", "CORAL", "Mixes"}

// groupBySuite returns the campaign workloads grouped per suite.
func (r *Runner) groupBySuite() map[string][]string {
	g := make(map[string][]string)
	for _, w := range r.opts.Workloads {
		s := workload.Suite(w)
		g[s] = append(g[s], w)
	}
	return g
}
