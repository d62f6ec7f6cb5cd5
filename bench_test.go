package pageseer

import (
	"testing"

	"pageseer/internal/figures"
	"pageseer/internal/sim"
	"pageseer/internal/stats"
)

// The benches regenerate each table and figure of the paper's evaluation at
// a reduced scale (QuickFigureOptions: a representative workload subset,
// small instruction budgets) so `go test -bench .` completes in minutes.
// The full campaign is `go run ./cmd/paper-figures -all`.
//
// Headline values are attached as custom benchmark metrics, so bench output
// doubles as a regression record for the reproduced shapes.

func quickRunner() *figures.Runner {
	return figures.NewRunner(figures.QuickOptions())
}

// benchOnce runs fn once per bench iteration (each iteration is a full
// simulation campaign; b.N is normally 1).
func benchOnce(b *testing.B, fn func(r *figures.Runner)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fn(quickRunner())
	}
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.Table1(figures.QuickOptions().Config.Scale) == "" {
			b.Fatal("empty Table I")
		}
	}
}

func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.Table2(figures.QuickOptions().Config.Scale) == "" {
			b.Fatal("empty Table II")
		}
	}
}

func BenchmarkTable3Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.Table3() == "" {
			b.Fatal("empty Table III")
		}
	}
}

func BenchmarkFigure7ServiceBreakdown(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		rows, err := figures.Figure7(r)
		if err != nil {
			b.Fatal(err)
		}
		var psDRAM []float64
		for _, row := range rows {
			if row.Scheme == sim.SchemePageSeer {
				psDRAM = append(psDRAM, row.DRAM)
			}
		}
		b.ReportMetric(stats.Mean(psDRAM)*100, "pageseer-dram-%")
	})
}

func BenchmarkFigure8Effectiveness(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		rows, err := figures.Figure8(r)
		if err != nil {
			b.Fatal(err)
		}
		var pos, neg []float64
		for _, row := range rows {
			if row.Scheme == sim.SchemePageSeer {
				pos = append(pos, row.Positive)
				neg = append(neg, row.Negative)
			}
		}
		b.ReportMetric(stats.Mean(pos)*100, "positive-%")
		b.ReportMetric(stats.Mean(neg)*100, "negative-%")
	})
}

func BenchmarkFigure9PrefetchAccuracy(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		rows, err := figures.Figure9(r)
		if err != nil {
			b.Fatal(err)
		}
		var acc []float64
		for _, row := range rows {
			if row.Tracked > 0 {
				acc = append(acc, row.Accuracy)
			}
		}
		b.ReportMetric(stats.Mean(acc)*100, "accuracy-%")
	})
}

func BenchmarkFigure10SwapComposition(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		rows, err := figures.Figure10(r)
		if err != nil {
			b.Fatal(err)
		}
		var pref []float64
		for _, row := range rows {
			if row.TotalSwaps > 0 {
				pref = append(pref, row.MMUFrac+row.PrefetchFrac)
			}
		}
		b.ReportMetric(stats.Mean(pref)*100, "prefetch-swap-%")
	})
}

func BenchmarkFigure11SwapRate(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		rows, err := figures.Figure11(r)
		if err != nil {
			b.Fatal(err)
		}
		var w, wo []float64
		for _, row := range rows {
			w = append(w, row.WithBW)
			wo = append(wo, row.WithoutBW)
		}
		b.ReportMetric(stats.Mean(w), "swapsPerKI-bwopt")
		b.ReportMetric(stats.Mean(wo), "swapsPerKI-nobw")
	})
}

func BenchmarkFigure12PageWalks(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		rows, err := figures.Figure12(r)
		if err != nil {
			b.Fatal(err)
		}
		var miss, hit []float64
		for _, row := range rows {
			miss = append(miss, row.PTEMissRate)
			hit = append(hit, row.MMUDriverHitRate)
		}
		b.ReportMetric(stats.Mean(miss)*100, "pte-miss-%")
		b.ReportMetric(stats.Mean(hit)*100, "driver-hit-%")
	})
}

func BenchmarkFigure13PRTcWait(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		rows, err := figures.Figure13(r)
		if err != nil {
			b.Fatal(err)
		}
		var red []float64
		for _, row := range rows {
			red = append(red, row.Reduction)
		}
		b.ReportMetric(stats.Mean(red)*100, "wait-reduction-%")
	})
}

func BenchmarkFigure14Headline(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		sum, err := figures.Figure14(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((sum.IPCvsPoM-1)*100, "ipc-vs-pom-%")
		b.ReportMetric((sum.IPCvsMemPod-1)*100, "ipc-vs-mempod-%")
		b.ReportMetric((1-sum.AMMATvsPoM)*100, "ammat-cut-vs-pom-%")
		b.ReportMetric((1-sum.AMMATvsMemPod)*100, "ammat-cut-vs-mempod-%")
	})
}

func BenchmarkAblationNoCorr(b *testing.B) {
	benchOnce(b, func(r *figures.Runner) {
		rows, err := figures.Ablation(r)
		if err != nil {
			b.Fatal(err)
		}
		var sp []float64
		for _, row := range rows {
			sp = append(sp, row.Speedup)
		}
		b.ReportMetric((stats.GeoMean(sp)-1)*100, "corr-speedup-%")
	})
}

// BenchmarkSingleRun measures raw simulator throughput (simulated
// instructions per wall second) for capacity planning.
func BenchmarkSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Workload = "lbm"
		cfg.InstrPerCore = 300_000
		cfg.Warmup = 100_000
		sys, err := sim.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Instructions), "instructions")
	}
}
