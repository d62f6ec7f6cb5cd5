package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pageseer/internal/sim"
)

// options are one workload run's settings.
type options struct {
	seed     uint64
	seconds  float64 // the timed window
	trace    bool
	traceDir string
}

// workloadReport is one workload run's outcome, as printed and as stored in
// a result file.
type workloadReport struct {
	Repeats       int                `json:"repeats"`
	TracedRepeats int                `json:"traced_repeats,omitempty"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Failures      []string           `json:"failures,omitempty"`
	SwapRateDrift int                `json:"swap_rate_drift,omitempty"` // timed runs that differ from the verification pass in SwapsPerKI alone (flushOrderDrift)
	ResultsSHA256 string             `json:"results_sha256"`
	EndToEnd      map[string]summary `json:"end_to_end"`
	RawWallS      summary            `json:"raw_wall_s"` // host seconds per repeat, unscaled
	ProbeMS       summary            `json:"probe_ms"`   // the host-speed probe's times
	PerLayer      map[string]float64 `json:"per_layer,omitempty"`
}

// outcome is one timed Build + Run.
type outcome struct {
	sys        *sim.System
	res        sim.Results
	build, run time.Duration
	err        error
}

// buildAndRun builds and runs one simulation, recording its spans in spans
// (nil when untraced) under runID. It first collects the heap, untimed, so
// the previous run's garbage is neither collected on this run's time nor
// held beside it: the peak RSS is then that of one run.
func buildAndRun(cfg sim.Config, spans *spanLog, runID string) outcome {
	runtime.GC()
	args := map[string]any{"run_id": runID, "profile": cfg.Workload, "scheme": string(cfg.Scheme)}
	t0 := time.Now()
	sys, err := sim.Build(cfg)
	t1 := time.Now()
	spans.add("Build", "sim", t0, t1, args)
	if err != nil {
		return outcome{build: t1.Sub(t0), err: err}
	}
	res, err := sys.Run()
	t2 := time.Now()
	spans.add("Run", "sim", t1, t2, args)
	spans.add(cfg.Workload+"/"+string(cfg.Scheme), "run", t0, t2, args)
	return outcome{sys: sys, res: res, build: t1.Sub(t0), run: t2.Sub(t1), err: err}
}

// repeatTiming is one timed pass over a workload's runs.
type repeatTiming struct {
	runs     []runTiming     // per config
	probes   []time.Duration // host-speed probes, one before each run and one after the last
	events   float64         // Σ engine events fired
	simInstr float64         // Σ simulated instructions
	dur      time.Duration
}

type runTiming struct {
	build, run time.Duration
	setup      []time.Duration // build and, untraced, setupBuilds more Build times
	speed      float64         // hostSpeed from the probes around the run
	ok         bool            // ran and matched its reference
}

// setupBuilds is how many Builds each run adds, untimed for wall_s, so that
// setup_s, a few milliseconds a run, rests on more than one sample a run.
const setupBuilds = 4

// timeBuilds times n sim.Build calls of cfg, each on a collected heap. It
// stops at the first error, which the run itself then reports.
func timeBuilds(cfg sim.Config, n int) []time.Duration {
	var ds []time.Duration
	for range n {
		runtime.GC()
		t0 := time.Now()
		if _, err := sim.Build(cfg); err != nil {
			break
		}
		ds = append(ds, time.Since(t0))
	}
	return ds
}

type runner struct {
	name  string
	cfgs  []sim.Config
	refs  []*sim.Results // verification-pass results; nil where that pass failed
	instr []float64      // simulated instructions per config
	rep   *workloadReport
}

func (r *runner) fail(format string, args ...any) {
	r.rep.Failed++
	r.rep.Failures = append(r.rep.Failures, fmt.Sprintf(format, args...))
}

// verify runs every config once with Audit on (the liveness watchdog and
// the end-of-run invariant audit) and keeps its Results, minus the
// watchdog's own counters, as the reference every timed run must equal. It
// also reads the per-layer counts; the pass warms the process before the
// timed window.
func (r *runner) verify() *counts {
	c := &counts{}
	r.refs = make([]*sim.Results, len(r.cfgs))
	r.instr = make([]float64, len(r.cfgs))
	for i, cfg := range r.cfgs {
		cfg.Audit = true
		o := buildAndRun(cfg, nil, "")
		r.rep.Attempted++
		if o.err != nil {
			r.fail("verify %s/%s: %v", cfg.Workload, cfg.Scheme, o.err)
			continue
		}
		res := o.res
		res.Watchdog = sim.Results{}.Watchdog
		r.refs[i] = &res
		r.instr[i] = simulatedInstr(cfg, res.Cores)
		c.add(cfg, o.sys, res)
	}
	return c
}

// repeat runs every config once, timed between two host-speed probes, and
// checks each Results against the verification pass.
func (r *runner) repeat(n int, spans *spanLog) repeatTiming {
	start := time.Now()
	t := repeatTiming{runs: make([]runTiming, len(r.cfgs))}
	probe := hostProbe()
	t.probes = append(t.probes, probe)
	for i, cfg := range r.cfgs {
		var setup []time.Duration
		if spans == nil {
			// Traced repeats skip the extra Builds: they report no setup_s,
			// and the extra work would show in the profile and alloc counts.
			setup = timeBuilds(cfg, setupBuilds)
		}
		o := buildAndRun(cfg, spans, fmt.Sprintf("%s#%d.%d", r.name, n, i))
		before := probe
		probe = hostProbe()
		t.probes = append(t.probes, probe)
		r.rep.Attempted++
		switch {
		case o.err != nil:
			r.fail("repeat %d %s/%s: %v", n, cfg.Workload, cfg.Scheme, o.err)
			continue
		case r.refs[i] == nil:
			r.fail("repeat %d %s/%s: no verified reference", n, cfg.Workload, cfg.Scheme)
			continue
		case !reflect.DeepEqual(o.res, *r.refs[i]):
			if !flushOrderDrift(cfg, o.res, *r.refs[i]) {
				r.fail("repeat %d %s/%s: Results differ from the verification pass", n, cfg.Workload, cfg.Scheme)
				continue
			}
			r.rep.SwapRateDrift++
		}
		t.runs[i] = runTiming{build: o.build, run: o.run, setup: append(setup, o.build), speed: hostSpeed(before, probe), ok: true}
		t.events += float64(o.sys.Sim.Fired())
		t.simInstr += r.instr[i]
	}
	t.dur = time.Since(start)
	return t
}

// flushOrderDrift reports whether a and b, Results of cfg, differ in
// SwapsPerKI alone on a sampled PageSeer run. The simulator does not
// reproduce that figure there: core.Correlator.Flush writes its filter back
// in Go map order while each writeback reads the entries not yet written,
// and sampled mode fast-forwards the tail after that flush, so the tail's
// swap count can vary from run to run (on 4 of seeds 1–60). Such a run is
// counted in SwapRateDrift, not failed; any other difference fails it.
func flushOrderDrift(cfg sim.Config, a, b sim.Results) bool {
	if cfg.Sample == 0 || cfg.Scheme != sim.SchemePageSeer {
		return false
	}
	a.SwapsPerKI = b.SwapsPerKI
	return reflect.DeepEqual(a, b)
}

// repeatUntil runs timed repeats until the next one would end after
// deadline, and at least one.
func (r *runner) repeatUntil(deadline time.Time, spans *spanLog) []repeatTiming {
	var ts []repeatTiming
	for len(ts) == 0 || time.Now().Add(ts[len(ts)-1].dur).Before(deadline) {
		ts = append(ts, r.repeat(len(ts), spans))
	}
	return ts
}

// endToEnd computes wall_s, run_mips_geomean and setup_s over reps. Every
// host time is scaled to the reference host speed by its run's hostSpeed.
//
// Each config's Build + Run and Run times are medians over its repeats, and
// its Build time the median over all its Builds (setupBuilds + 1 a run).
// wall_s sums the first over configs, run_mips_geomean is the geomean over
// configs of simulated instructions per second of the second, and setup_s
// sums the third. The quartiles kept beside each value are over whole
// repeats and show how much the repeats in the window varied.
func (r *runner) endToEnd(reps []repeatTiming) map[string]summary {
	cfgWall := make([][]float64, len(r.cfgs))
	cfgRun := make([][]float64, len(r.cfgs))
	cfgBuild := make([][]float64, len(r.cfgs))
	var walls, mipss, setups []float64
	for _, t := range reps {
		var wall, setup float64
		var mips []float64
		for i, rt := range t.runs {
			if !rt.ok {
				continue
			}
			build, run := rt.speed*rt.build.Seconds(), rt.speed*rt.run.Seconds()
			wall += build + run
			mips = append(mips, r.instr[i]/run/1e6)
			cfgWall[i] = append(cfgWall[i], build+run)
			cfgRun[i] = append(cfgRun[i], run)
			var builds []float64
			for _, b := range rt.setup {
				builds = append(builds, rt.speed*b.Seconds())
			}
			setup += summarize(builds).Median
			cfgBuild[i] = append(cfgBuild[i], builds...)
		}
		walls = append(walls, wall)
		setups = append(setups, setup)
		mipss = append(mipss, geomean(mips))
	}
	var wall, setup float64
	var mips []float64
	for i := range r.cfgs {
		if len(cfgWall[i]) > 0 {
			wall += summarize(cfgWall[i]).Median
			setup += summarize(cfgBuild[i]).Median
			mips = append(mips, r.instr[i]/summarize(cfgRun[i]).Median/1e6)
		}
	}
	return map[string]summary{
		"wall_s":           summarize(walls).withValue(wall),
		"run_mips_geomean": summarize(mipss).withValue(geomean(mips)),
		"setup_s":          summarize(setups).withValue(setup),
	}
}

// hostFigures summarizes, over reps, the unscaled host seconds per repeat
// and the probe's times in milliseconds, so a result file shows the host's
// state next to the scaled metrics.
func hostFigures(reps []repeatTiming) (rawWall, probe summary) {
	var walls, probes []float64
	for _, t := range reps {
		var wall float64
		for _, rt := range t.runs {
			if rt.ok {
				wall += (rt.build + rt.run).Seconds()
			}
		}
		walls = append(walls, wall)
		for _, p := range t.probes {
			probes = append(probes, float64(p)/float64(time.Millisecond))
		}
	}
	return summarize(walls), summarize(probes)
}

// runWorkload verifies, then times repeats of w for opt.seconds. Traced, the
// window's first half is untraced and its second half runs under the CPU
// profiler and the span log, and the per-layer metrics are filled in.
func runWorkload(w workload, opt options) (*workloadReport, error) {
	r := &runner{name: w.name, cfgs: w.configs(opt.seed), rep: &workloadReport{}}
	cnt := r.verify()
	r.rep.ResultsSHA256 = resultsSHA(r.refs)

	var detailedRefs map[runKey]sim.Results
	if opt.trace && w.sampled {
		var err error
		if detailedRefs, err = r.detailedReferences(); err != nil {
			return nil, err
		}
	}

	window := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	if !opt.trace {
		untraced := r.repeatUntil(start.Add(window), nil)
		r.rep.Repeats = len(untraced)
		r.rep.EndToEnd = r.endToEnd(untraced)
		r.rep.RawWallS, r.rep.ProbeMS = hostFigures(untraced)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.rep.EndToEnd["peak_rss_mb"] = summarize([]float64{rss})
		return r.rep, nil
	}

	untraced := r.repeatUntil(start.Add(window/2), nil)
	r.rep.Repeats = len(untraced)
	r.rep.EndToEnd = r.endToEnd(untraced)
	r.rep.RawWallS, r.rep.ProbeMS = hostFigures(untraced)

	tr, err := r.traceRepeats(start.Add(window), filepath.Join(opt.traceDir, w.name), opt.seed)
	if err != nil {
		return nil, err
	}
	r.rep.TracedRepeats = len(tr.repeats)
	var events, runSeconds float64
	for _, t := range untraced {
		events += t.events
		for _, rt := range t.runs {
			runSeconds += rt.speed * rt.run.Seconds()
		}
	}

	pl := cnt.metrics()
	for _, l := range timeLayers {
		pl["layer."+l+".self_ns_per_kinstr"] = tr.layers[l].SelfNSPerKinstr
	}
	for _, l := range shareLayers {
		pl["layer."+l+".self_share"] = tr.layers[l].SelfShare
	}
	pl["engine.events_per_s"] = ratio(events, runSeconds)
	pl["sim.sample_ipc_err_pct"], pl["sim.sample_swaps_err_pct"] = 0, 0
	if w.sampled {
		var sampled []sim.Results
		for _, ref := range r.refs {
			if ref != nil {
				sampled = append(sampled, *ref)
			}
		}
		ipcErr, swapErr, err := sampleErrors(sampled, detailedRefs)
		if err != nil {
			return nil, err
		}
		pl["sim.sample_ipc_err_pct"], pl["sim.sample_swaps_err_pct"] = ipcErr, swapErr
	}
	pl["host.alloc_bytes_per_kinstr"] = ratio(tr.allocBytes, tr.kinstr)
	pl["host.gc_cycles"] = ratio(tr.gcCycles, float64(len(tr.repeats)))
	pl["bench.trace_overhead_pct"] = 100 * (r.endToEnd(tr.repeats)["wall_s"].Value/r.rep.EndToEnd["wall_s"].Value - 1)
	for _, d := range perLayer() {
		if _, ok := pl[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not computed", d.name)
		}
	}
	r.rep.PerLayer = pl
	return r.rep, nil
}

// traceResult is what the traced repeats measured.
type traceResult struct {
	repeats    []repeatTiming
	layers     map[string]layerTime
	kinstr     float64 // simulated kilo-instructions the profile covers
	allocBytes float64 // heap bytes allocated meanwhile
	gcCycles   float64 // GC cycles completed meanwhile
}

type layerTime struct {
	SelfNS          int64   `json:"self_ns"`
	SelfShare       float64 `json:"self_share"`
	SelfNSPerKinstr float64 `json:"self_ns_per_kinstr"`
}

// traceRepeats runs repeats until deadline under the CPU profiler and the
// span log, folds the profile into layers, and writes profile.pb.gz,
// spans.json and layers.json to dir.
func (r *runner) traceRepeats(deadline time.Time, dir string, seed uint64) (*traceResult, error) {
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := autoGCCycles()
	spans := newSpanLog()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	reps := r.repeatUntil(deadline, spans)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	gc1 := autoGCCycles()
	spans.add(r.name, "workload", spans.start, time.Now(), map[string]any{"seed": seed})

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "profile.pb.gz"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(dir, "spans.json")); err != nil {
		return nil, err
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	tr := &traceResult{
		repeats:    reps,
		layers:     map[string]layerTime{},
		allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
		gcCycles:   gc1 - gc0,
	}
	var speeds []float64
	for _, t := range reps {
		tr.kinstr += t.simInstr / 1000
		for _, rt := range t.runs {
			if rt.ok {
				speeds = append(speeds, rt.speed)
			}
		}
	}
	// Per-kinstr self times are scaled to the reference host speed, like
	// the end-to-end times, by the traced runs' median host speed.
	speed := summarize(speeds).Median
	layerNS := p.fold()
	var totalNS int64
	for _, ns := range layerNS {
		totalNS += ns
	}
	for l, ns := range layerNS {
		tr.layers[l] = layerTime{SelfNS: ns, SelfShare: ratio(float64(ns), float64(totalNS)), SelfNSPerKinstr: ratio(speed*float64(ns), tr.kinstr)}
	}
	err = writeJSON(filepath.Join(dir, "layers.json"), map[string]any{
		"workload": r.name, "seed": seed, "traced_repeats": len(reps),
		"self_ns": totalNS, "layers": tr.layers,
	})
	return tr, err
}

// autoGCCycles counts the GC cycles the runtime started on its own, leaving
// out those the benchmark forces between runs.
func autoGCCycles() float64 {
	s := []metrics.Sample{{Name: "/gc/cycles/automatic:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// detailedReferences runs, untimed, the detailed counterpart of each of the
// sampled workload's runs: same profile, scheme, seed and budgets.
func (r *runner) detailedReferences() (map[runKey]sim.Results, error) {
	refs := map[runKey]sim.Results{}
	for _, cfg := range r.cfgs {
		o := buildAndRun(detailedCounterpart(cfg), nil, "")
		if o.err != nil {
			return nil, fmt.Errorf("detailed reference %s/%s: %w", cfg.Workload, cfg.Scheme, o.err)
		}
		refs[keyOf(o.res)] = o.res
	}
	return refs, nil
}

// resultsSHA digests the verification pass's Results, so two runs of the
// same seed can show they simulated the same machine.
func resultsSHA(refs []*sim.Results) string {
	h := sha256.New()
	for _, r := range refs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set, VmHWM, in MiB. (getrusage's
// ru_maxrss would also count the image the process replaced at exec.)
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
