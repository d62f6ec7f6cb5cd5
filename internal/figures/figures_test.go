package figures

import (
	"strings"
	"testing"

	"pageseer/internal/sim"
)

// tinyOpts keeps figure tests fast: two small workloads, small budgets.
func tinyOpts() Options {
	o := DefaultOptions()
	o.Workloads = []string{"lbm", "barnes"}
	o.Config.InstrPerCore = 120_000
	o.Config.Warmup = 60_000
	o.Config.MaxCores = 2
	return o
}

func TestRunnerCachesRuns(t *testing.T) {
	r := NewRunner(tinyOpts())
	a, err := r.Run("lbm", sim.SchemePageSeer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("lbm", sim.SchemePageSeer)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached run differs from original")
	}
	if len(r.cache) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(r.cache))
	}
}

func TestTablesRender(t *testing.T) {
	for name, s := range map[string]string{
		"Table1": Table1(128),
		"Table2": Table2(128),
		"Table3": Table3(),
	} {
		if s == "" {
			t.Errorf("%s empty", name)
		}
	}
	if !strings.Contains(Table3(), "mix6") {
		t.Error("Table III missing mixes")
	}
	if !strings.Contains(Table1(128), "11-58-80") {
		t.Error("Table I missing NVM timings")
	}
	if !strings.Contains(Table2(128), "pJ") {
		t.Error("Table II missing energy numbers")
	}
}

func TestAllFiguresBuildAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure build in -short mode")
	}
	r := NewRunner(tinyOpts())

	f7, err := Figure7(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) == 0 || RenderFigure7(f7) == "" {
		t.Fatal("Figure 7 empty")
	}
	for _, row := range f7 {
		if s := row.DRAM + row.NVM + row.Buffer; s < 0.99 || s > 1.01 {
			t.Fatalf("Figure 7 row fractions sum to %f: %+v", s, row)
		}
	}

	f8, err := Figure8(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != len(f7) || RenderFigure8(f8) == "" {
		t.Fatal("Figure 8 mismatch")
	}

	f9, err := Figure9(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9) != 2 || RenderFigure9(f9) == "" {
		t.Fatal("Figure 9 empty")
	}
	for _, row := range f9 {
		if row.Accuracy < 0 || row.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", row)
		}
	}

	f10, err := Figure10(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f10 {
		if row.TotalSwaps > 0 {
			if s := row.MMUFrac + row.PrefetchFrac + row.RegularFrac; s < 0.99 || s > 1.01 {
				t.Fatalf("Figure 10 fractions sum to %f: %+v", s, row)
			}
		}
	}
	if RenderFigure10(f10) == "" {
		t.Fatal("Figure 10 render empty")
	}

	f11, err := Figure11(r)
	if err != nil {
		t.Fatal(err)
	}
	if RenderFigure11(f11) == "" {
		t.Fatal("Figure 11 render empty")
	}

	f12, err := Figure12(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f12 {
		if row.PTEMissRate < 0 || row.PTEMissRate > 1 || row.MMUDriverHitRate < 0 || row.MMUDriverHitRate > 1 {
			t.Fatalf("Figure 12 rates out of range: %+v", row)
		}
	}
	if RenderFigure12(f12) == "" {
		t.Fatal("Figure 12 render empty")
	}

	f13, err := Figure13(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13) != 2 || RenderFigure13(f13) == "" {
		t.Fatal("Figure 13 empty")
	}

	f14, err := Figure14(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Rows) != 2 || f14.GeoIPCPageSeer <= 0 {
		t.Fatalf("Figure 14 summary broken: %+v", f14)
	}
	if RenderFigure14(f14) == "" {
		t.Fatal("Figure 14 render empty")
	}

	abl, err := Ablation(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 2 || RenderAblation(abl) == "" {
		t.Fatal("ablation empty")
	}
}

func TestBarRendering(t *testing.T) {
	if b := bar(0.5, 10); strings.Count(b, "#") != 5 || len(b) != 10 {
		t.Fatalf("bar(0.5,10) = %q", b)
	}
	if b := bar(-1, 4); strings.Count(b, "#") != 0 {
		t.Fatalf("bar(-1) = %q", b)
	}
	if b := bar(2, 4); strings.Count(b, "#") != 4 {
		t.Fatalf("bar(2) = %q", b)
	}
}

func TestQuickOptionsAreSubset(t *testing.T) {
	q := QuickOptions()
	if len(q.Workloads) >= 26 || q.Config.InstrPerCore >= DefaultOptions().Config.InstrPerCore {
		t.Fatalf("quick options not reduced: %+v", q)
	}
}

// TestNoBWKeyReachesNoCorr: the bandwidth-heuristic switch of a run key
// applies to PageSeer-NoCorr as well as PageSeer — the resolved config
// carries it, and the run is labelled apart from the plain NoCorr run.
func TestNoBWKeyReachesNoCorr(t *testing.T) {
	var got []sim.Config
	simulateHook = func(cfg sim.Config) { got = append(got, cfg) }
	defer func() { simulateHook = nil }()

	o := tinyOpts()
	o.Parallelism = 1 // keep the hook race-free
	r := NewRunner(o)
	k := Key{Workload: "lbm", Scheme: sim.SchemePageSeerNoCorr, DisableBW: true}
	if _, errs := r.RunKeys([]Key{k}, nil); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if len(got) != 1 || got[0].Scheme != sim.SchemePageSeerNoCorr || !got[0].DisableBWOpt {
		t.Fatalf("resolved configs = %+v, want one NoCorr run with DisableBWOpt", got)
	}
	if ks := r.begun(); len(ks) != 1 || ks[0].Label() != "pageseer-nocorr-nobw" {
		t.Fatalf("begun keys = %+v, want one pageseer-nocorr-nobw run", ks)
	}
}
