package main

import (
	"runtime"
	"time"
)

// The benchmark's host is shared, and its speed is not constant. On the
// reference host (see README.md) the simulator slows by up to 60% in
// episodes that last from seconds to minutes. CPU time slows with it, and
// no statistic taken inside a 30 s run absorbs an episode that outlasts the
// run. The end-to-end times are therefore scaled by the host's speed,
// measured next to every run by hostProbe.
//
// The probe is a fixed amount of Go map work. Map operations slow with the
// simulator in those episodes; ALU loops and random array access barely
// move (README.md, "Host speed").
const (
	probeKeys = 10_000
	probeOps  = 1_500_000

	// probeRef is the probe's time on the reference host at its fast
	// level. A time multiplied by probeRef / (the probe's time next to it)
	// reads as seconds on that host at that level.
	probeRef = 22 * time.Millisecond
)

// probeMap is cleared and reused by every round, so the probe allocates
// nothing.
var probeMap = make(map[uint64]uint64, probeKeys)

// hostProbe times one round of the probe. It first collects the heap, so no
// collection of a finished run's garbage runs beside it.
func hostProbe() time.Duration {
	runtime.GC()
	clear(probeMap)
	x := uint64(7)
	start := time.Now()
	for range probeOps {
		x = x*6364136223846793005 + 1442695040888963407
		probeMap[(x>>17)%probeKeys] += x
	}
	return time.Since(start)
}

// hostSpeed is the factor that scales a run's host times to the reference
// speed, from the probes taken just before and just after the run.
func hostSpeed(before, after time.Duration) float64 {
	return 2 * float64(probeRef) / float64(before+after)
}
