package sim

import (
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// quickSampleConfig is the sample-smoke geometry: the quick campaign's
// GemsFDTD run (400k measured + 250k warm-up per core, 4 cores) sampled as
// 16 strides of 25k with a 1000-instruction window after a 1k detailed
// warm-up — ~8% of the run detailed, the rest functionally fast-forwarded.
func quickSampleConfig() (detailed, sampled Config) {
	detailed = DefaultConfig()
	detailed.Workload = "GemsFDTD"
	detailed.InstrPerCore = 400_000
	detailed.Warmup = 250_000
	detailed.MaxCores = 4
	sampled = detailed
	sampled.Sample = 16
	sampled.SampleWindow = 1_000
	sampled.SampleWarmup = 1_000
	return detailed, sampled
}

// TestSampleSmoke is the sampled-mode acceptance gate (make sample-smoke):
// on the quick GemsFDTD run the sampled schedule must reproduce the detailed
// run's IPC within 2% and its swap count within 5% (after extrapolation),
// report a populated Sampling descriptor with a sane window-IPC coefficient
// of variation, and hold every audit — watchdog, end-of-run invariants,
// ledger conservation, CPI-stack blame conservation — inside the windows.
// The >=5x wall-clock speedup bar runs only under PAGESEER_SAMPLE_SPEEDUP=1
// (the make target sets it): timing assertions don't belong in
// instrumented or loaded `go test ./...` sweeps. It compares the medians of
// five interleaved timings of each side, since one timing of a run this
// short swings with the host's load.
func TestSampleSmoke(t *testing.T) {
	dcfg, scfg := quickSampleConfig()
	for _, cfg := range []*Config{&dcfg, &scfg} {
		cfg.Audit = true
		cfg.Obs.Ledger = true
		cfg.Obs.CPI = true
	}

	runTimed := func(cfg Config) (Results, time.Duration) {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(start)
	}
	dres, dwall := runTimed(dcfg)
	sres, swall := runTimed(scfg)

	// Sampling descriptor: populated, geometry echoed, CV finite and sane.
	sp := sres.Sampling
	if sp.Windows != scfg.Sample || sp.WindowInstr != scfg.SampleWindow {
		t.Fatalf("Sampling descriptor not populated: %+v", sp)
	}
	if sp.MeanIPC <= 0 || math.IsNaN(sp.IPCCV) || sp.IPCCV < 0 {
		t.Fatalf("window IPC summary inconsistent: %+v", sp)
	}
	if sp.IPCCV > 0.5 {
		t.Fatalf("window IPC CV %.3f: windows too unstable to trust (geometry needs retuning)", sp.IPCCV)
	}

	// IPC error <= 2% relative to the detailed reference.
	ipcErr := math.Abs(sres.IPC-dres.IPC) / dres.IPC
	if ipcErr > 0.02 {
		t.Errorf("sampled IPC %.4f vs detailed %.4f: %.2f%% error (bar: 2%%)", sres.IPC, dres.IPC, 100*ipcErr)
	}

	// Swap-count error <= 5%: sampled SwapsPerKI estimates the full-run rate
	// directly (fast-forward commits + timed span completions over the
	// covered region), so the rates compare with no further extrapolation;
	// scale both by the detailed instruction count for absolute display.
	dswaps := dres.SwapsPerKI * float64(dres.Instructions) / 1000
	sswaps := sres.SwapsPerKI * float64(dres.Instructions) / 1000
	swapErr := math.Abs(sswaps-dswaps) / dswaps
	if swapErr > 0.05 {
		t.Errorf("extrapolated swaps %.0f vs detailed %.0f: %.2f%% error (bar: 5%%)", sswaps, dswaps, 100*swapErr)
	}

	// Conservation audits inside the windows: the ledger's outcome law and
	// the CPI stack's blame law both survived CheckInvariants (Audit was
	// on); spot-check the digests are populated and coherent here too.
	eff := sres.Effectiveness
	if eff.TotalStarted() == 0 {
		t.Error("ledger recorded no swaps inside the windows")
	}
	if eff.TotalUseful()+eff.TotalUnused()+eff.TotalOpen() != eff.TotalStarted() {
		t.Errorf("ledger conservation violated across window merge: %d+%d+%d != %d",
			eff.TotalUseful(), eff.TotalUnused(), eff.TotalOpen(), eff.TotalStarted())
	}
	if total := sres.CPIStack.Total(); total.Requests == 0 || total.Latency == 0 {
		t.Error("CPI stack empty inside the windows")
	}

	t.Logf("detailed %.2fs ipc=%.4f swaps=%.0f | sampled %.2fs ipc=%.4f swaps=%.0f (x%.1f) | err ipc=%.2f%% swaps=%.2f%% cv=%.3f",
		dwall.Seconds(), dres.IPC, dswaps, swall.Seconds(), sres.IPC, sswaps,
		sp.Extrapolation, 100*ipcErr, 100*swapErr, sp.IPCCV)

	if os.Getenv("PAGESEER_SAMPLE_SPEEDUP") == "" {
		t.Log("PAGESEER_SAMPLE_SPEEDUP unset: skipping the wall-clock speedup bar")
		return
	}
	const repeats = 5
	dwalls, swalls := []float64{dwall.Seconds()}, []float64{swall.Seconds()}
	for len(dwalls) < repeats {
		_, d := runTimed(dcfg)
		_, s := runTimed(scfg)
		dwalls, swalls = append(dwalls, d.Seconds()), append(swalls, s.Seconds())
	}
	slices.Sort(dwalls)
	slices.Sort(swalls)
	if speedup := dwalls[repeats/2] / swalls[repeats/2]; speedup < 5 {
		t.Errorf("sampled run %.2fx faster than detailed in the median of %d (bar: 5x)", speedup, repeats)
	}
}

// TestZeroAllocFastForward pins functional fast-forward's allocation shape:
// O(1) per gap, not O(1) per access. After a first large gap has sized every
// structure the functional path touches (page tables, cache tag arrays, hot
// page and correlation tables, the remap), a steady-state 50k-instruction
// gap may allocate only the interleaver's per-call progress slice plus rare
// structural growth — a small constant, nowhere near one allocation per
// access. Part of the allocguard gate (run without -race; instrumentation
// allocates).
func TestZeroAllocFastForward(t *testing.T) {
	cfg, _ := quickSampleConfig()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.fastForward(200_000) // size every table before measuring

	const chunk = 50_000
	allocs := testing.AllocsPerRun(4, func() { sys.fastForward(chunk) })
	const ceiling = 32
	if allocs > ceiling {
		t.Fatalf("steady-state fast-forward allocates %.0f per %d-instruction gap (ceiling %d): the functional path is allocating per access",
			allocs, chunk, ceiling)
	}
}
