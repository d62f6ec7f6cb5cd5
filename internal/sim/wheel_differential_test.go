package sim

import (
	"reflect"
	"testing"
)

// TestWheelVsHeapDifferentialSim pins the timing wheel's fire order at full
// system scale: campaign-style runs must produce identical Results — every
// counter, cycle count, and latency histogram — with the wheel on (the
// default) and off (forceHeapQueue routes every event through the 4-ary
// overflow heap, the reference implementation). The grid covers all five
// manager schemes so wheel/heap boundary crossings are exercised under every
// event mix: swaps, metadata fetches, MMU hints, and decay timers.
func TestWheelVsHeapDifferentialSim(t *testing.T) {
	grid := []struct {
		scheme Scheme
		wl     string
	}{
		{SchemePageSeer, "lbm"},
		{SchemePageSeer, "mix6"},
		{SchemePoM, "mcf"},
		{SchemeMemPod, "miniFE"},
		{SchemeStatic, "leslie3d"},
	}
	for _, g := range grid {
		t.Run(string(g.scheme)+"/"+g.wl, func(t *testing.T) {
			run := func(forceHeap bool) Results {
				cfg := DefaultConfig()
				cfg.Scheme = g.scheme
				cfg.Workload = g.wl
				cfg.InstrPerCore = 80_000
				cfg.Warmup = 40_000
				cfg.MaxCores = 2
				cfg.forceHeapQueue = forceHeap
				sys, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			wheel, heap := run(false), run(true)
			if !reflect.DeepEqual(wheel, heap) {
				t.Fatalf("wheel and heap runs diverge:\nwheel: %+v\nheap:  %+v", wheel, heap)
			}
		})
	}
}
