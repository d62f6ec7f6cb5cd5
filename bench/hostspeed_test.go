package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"pageseer/internal/sim"
)

func TestHostSpeed(t *testing.T) {
	if got := hostSpeed(probeRef, probeRef); got != 1 {
		t.Errorf("probes at the reference time: speed %v, want 1", got)
	}
	if got := hostSpeed(probeRef, 3*probeRef); got != 0.5 {
		t.Errorf("probes averaging twice the reference time: speed %v, want 0.5", got)
	}
}

// TestEndToEndScalesAndTakesMedians checks that each run's times are scaled
// by its host speed before the per-config medians are taken, and that
// setup_s pools every Build of a config.
func TestEndToEndScalesAndTakesMedians(t *testing.T) {
	r := &runner{cfgs: make([]sim.Config, 2), instr: []float64{4e6, 1e6}}
	rt := func(build, run time.Duration, speed float64, more ...time.Duration) runTiming {
		return runTiming{build: build, run: run, setup: append(more, build), speed: speed, ok: true}
	}
	s := time.Second
	reps := []repeatTiming{
		{runs: []runTiming{rt(s/10, s, 1), rt(s/10, s, 1)}},
		// A slow host: twice the times at half the speed.
		{runs: []runTiming{rt(s/5, 2*s, 0.5), rt(s/5, 2*s, 0.5)}},
		// An outlier on config 0 only, with three quicker extra Builds;
		// config 1 failed.
		{runs: []runTiming{rt(s/10, 3*s, 1, s/20, s/20, s/20), {}}},
	}
	m := r.endToEnd(reps)
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("wall_s", m["wall_s"].Value, 2*1.1)
	// Config 0's Builds: 0.1, 0.1, then 0.05 ×3 and 0.1; config 1's: 0.1, 0.1.
	near("setup_s", m["setup_s"].Value, 0.075+0.1)
	near("run_mips_geomean", m["run_mips_geomean"].Value, math.Sqrt(4*1))
	if m["wall_s"].N != 3 {
		t.Errorf("wall_s over %d repeats, want 3", m["wall_s"].N)
	}
}

// TestFoldLeavesOutProbe profiles the real probe and checks that its frame
// carries the name the fold looks for, and that the fold drops it.
func TestFoldLeavesOutProbe(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		hostProbe()
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var probeNS, total int64
	for _, s := range prof.samples {
		total += s.ns
		if slices.Contains(s.funcs, probeFunc) {
			probeNS += s.ns
		}
	}
	if probeNS == 0 {
		t.Fatalf("no sample under %s in %d samples", probeFunc, len(prof.samples))
	}
	var folded int64
	for _, ns := range prof.fold() {
		folded += ns
	}
	if folded != total-probeNS {
		t.Errorf("fold kept %d ns of %d, want all but the probe's %d", folded, total, probeNS)
	}
}
