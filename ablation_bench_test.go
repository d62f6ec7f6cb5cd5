package pageseer

import (
	"testing"

	"pageseer/internal/core"
	"pageseer/internal/sim"
)

// Ablation benches for the design choices DESIGN.md calls out: each sweeps
// one PageSeer hardware knob on a fixed workload and reports the resulting
// IPC as a metric, so `go test -bench Ablation` doubles as a design-space
// record. Budgets are small; shapes, not absolutes, are the point.

func ablationConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Workload = "miniFE"
	cfg.MaxCores = 4
	cfg.InstrPerCore = 800_000
	cfg.Warmup = 400_000
	return cfg
}

func runWith(b *testing.B, pcfg core.Config) sim.Results {
	b.Helper()
	sys, err := sim.BuildWithPageSeerConfig(ablationConfig(), pcfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func scaledDefault() core.Config {
	return core.DefaultConfig().Scale(ablationConfig().Scale)
}

// BenchmarkAblationPCTThreshold sweeps the prefetch-swap threshold
// (Table II value: 14). Lower thresholds swap earlier but risk inaccurate
// prefetches; higher ones converge to HPT-only behaviour.
func BenchmarkAblationPCTThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, thr := range []uint32{7, 14, 28} {
			pcfg := scaledDefault()
			pcfg.PCTThreshold = thr
			pcfg.AccuracyTarget = uint64(thr)
			res := runWith(b, pcfg)
			b.ReportMetric(res.IPC, "ipc-thr"+itoa(int(thr)))
		}
	}
}

// BenchmarkAblationHPTThreshold sweeps the regular-swap threshold
// (Table II value: 6) — the paper notes it must sit below the PCTc's.
func BenchmarkAblationHPTThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, thr := range []uint32{3, 6, 12} {
			pcfg := scaledDefault()
			pcfg.HPTThreshold = thr
			res := runWith(b, pcfg)
			b.ReportMetric(res.IPC, "ipc-thr"+itoa(int(thr)))
		}
	}
}

// BenchmarkAblationColors sweeps the same-color constraint (PRT
// associativity, Figure 4): fewer colors means more DRAM frames per color
// (more placement freedom) but a larger per-lookup search; more colors
// approaches direct mapping and its conflicts.
func BenchmarkAblationColors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := scaledDefault()
		for _, frac := range []int{4, 1} { // colors = entries/ways/frac
			pcfg := base
			pcfg.PRTcEntries = base.PRTcEntries / frac
			res := runWith(b, pcfg)
			b.ReportMetric(res.IPC, "ipc-colors"+itoa(pcfg.PRTcEntries/pcfg.PRTcWays))
		}
	}
}

// BenchmarkAblationNoBWOpt measures the Swap Driver bandwidth heuristic
// (Section V-B / Figure 11) as an IPC effect rather than a swap-rate one.
func BenchmarkAblationNoBWOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := scaledDefault()
		off := scaledDefault()
		off.BWOpt = false
		rOn := runWith(b, on)
		rOff := runWith(b, off)
		b.ReportMetric(rOn.IPC/rOff.IPC, "ipc-bwopt-vs-off")
		b.ReportMetric(rOff.SwapsPerKI/maxf(rOn.SwapsPerKI, 1e-9), "swaprate-off-vs-on")
	}
}

// BenchmarkAblationFilterSize sweeps the Filter table (Table II: 128
// entries): too small and flurry histories are folded back before they
// complete, losing follower confirmations.
func BenchmarkAblationFilterSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{16, 128} {
			pcfg := scaledDefault()
			pcfg.FilterEntries = n
			res := runWith(b, pcfg)
			b.ReportMetric(res.IPC, "ipc-filter"+itoa(n))
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
