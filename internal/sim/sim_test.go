package sim

import (
	"reflect"
	"testing"

	"pageseer/internal/core"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/pom"
)

// tinyConfig keeps driver tests fast.
func tinyConfig(scheme Scheme, wl string) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Workload = wl
	cfg.InstrPerCore = 120_000
	cfg.Warmup = 60_000
	cfg.MaxCores = 2
	return cfg
}

func TestBuildRejectsUnknownWorkload(t *testing.T) {
	cfg := tinyConfig(SchemeStatic, "not-a-benchmark")
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestBuildRejectsUnknownScheme(t *testing.T) {
	cfg := tinyConfig("definitely-not-a-scheme", "lbm")
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestBuildWithPageSeerConfigOverride: explicit PageSeer hardware
// parameters replace the defaults the scheme name would select.
func TestBuildWithPageSeerConfigOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "barnes"
	cfg.MaxCores = 2
	cfg.InstrPerCore = 100_000
	cfg.Warmup = 50_000
	pcfg := core.DefaultConfig().Scale(cfg.Scale)
	pcfg.NoCorr = true
	sys, err := BuildWithPageSeerConfig(cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.PageSeer == nil || sys.PageSeer.Name() != "PageSeer-NoCorr" {
		t.Fatal("PageSeer config override not applied")
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllSchemesRunAndVerify(t *testing.T) {
	for _, sch := range []Scheme{SchemeStatic, SchemePageSeer, SchemePageSeerNoCorr, SchemePoM, SchemeMemPod} {
		sys, err := Build(tinyConfig(sch, "lbm"))
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		res, err := sys.Run() // Run verifies integrity internally
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		if res.Instructions == 0 || res.Cycles == 0 || res.IPC <= 0 {
			t.Fatalf("%s: empty results %+v", sch, res)
		}
		d, n, b := res.ServiceBreakdown()
		if sum := d + n + b; sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: service fractions sum to %f", sch, sum)
		}
		pos, neg, neu := res.AccessEffectiveness()
		if sum := pos + neg + neu; sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: effectiveness fractions sum to %f", sch, sum)
		}
	}
}

func TestStaticIsAllNeutral(t *testing.T) {
	sys, err := Build(tinyConfig(SchemeStatic, "miniFE"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ctl.Positive != 0 || res.Ctl.Negative != 0 {
		t.Fatalf("static run produced positive/negative accesses: %+v", res.Ctl)
	}
}

// TestDeterminism pins that a freshly built System reproduces the full
// Results of an identical one, for every scheme in detailed and sampled mode.
func TestDeterminism(t *testing.T) {
	for _, scheme := range []Scheme{SchemeStatic, SchemePageSeer, SchemePageSeerNoCorr, SchemePoM, SchemeMemPod} {
		for _, sampled := range []bool{false, true} {
			cfg := tinyConfig(scheme, "mix6")
			if sampled {
				cfg.Sample, cfg.SampleWindow, cfg.SampleWarmup = 6, 10_000, 5_000
			}
			a, b := runOnce(t, cfg), runOnce(t, cfg)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s (sampled=%v): non-deterministic results:\n%+v\nvs\n%+v", scheme, sampled, a, b)
			}
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	cfg := tinyConfig(SchemeStatic, "mcf")
	sysA, _ := Build(cfg)
	cfg.Seed = 99
	sysB, _ := Build(cfg)
	ra, err := sysA.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sysB.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cycles == rb.Cycles && ra.Ctl == rb.Ctl {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	cfg := tinyConfig(SchemePageSeer, "lbm")
	cfg.Warmup = 0
	sysA, _ := Build(cfg)
	ra, err := sysA.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmup = 100_000
	sysB, _ := Build(cfg)
	rb, err := sysB.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Measured instruction counts must reflect only the epoch.
	if rb.Instructions > ra.Instructions+ra.Instructions/10 {
		t.Fatalf("warm-up leaked into measured instructions: %d vs %d", rb.Instructions, ra.Instructions)
	}
}

func TestMixRunsFourDifferentProcesses(t *testing.T) {
	cfg := tinyConfig(SchemePageSeer, "mix1")
	cfg.MaxCores = 0
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Cores) != 4 {
		t.Fatalf("mix runs %d cores, want 4", len(sys.Cores))
	}
	pids := map[int]bool{}
	for _, c := range sys.Cores {
		pids[c.PID()] = true
	}
	if len(pids) != 4 {
		t.Fatalf("mix cores share PIDs: %v", pids)
	}
}

func TestInstanceCountsRespected(t *testing.T) {
	cfg := tinyConfig(SchemeStatic, "mcf") // x8 in Table III
	cfg.MaxCores = 0
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Cores) != 8 {
		t.Fatalf("mcf runs %d cores, want 8", len(sys.Cores))
	}
}

func TestHintsOnlyForPageSeer(t *testing.T) {
	for _, tc := range []struct {
		scheme    Scheme
		wantHints bool
	}{
		{SchemePageSeer, true},
		{SchemePoM, false},
		{SchemeMemPod, false},
		{SchemeStatic, false},
	} {
		sys, err := Build(tinyConfig(tc.scheme, "lbm"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if (res.MMU.Hints > 0) != tc.wantHints {
			t.Errorf("%s: hints=%d, wantHints=%v", tc.scheme, res.MMU.Hints, tc.wantHints)
		}
	}
}

// TestBuildWithManagerInstallsCustomScheme installs schemes through
// factories. A factory that builds a named scheme reports what the named
// run reports: the swap count comes from the swap engine and the remap
// cache from the exchange core, whoever installed the manager.
func TestBuildWithManagerInstallsCustomScheme(t *testing.T) {
	cfg := tinyConfig(SchemeStatic, "lbm")
	for _, tc := range []struct {
		name    string
		factory ManagerFactory
		named   Scheme // "" = no named scheme to compare against
	}{
		{"static", func(ctl *hmc.Controller) hmc.Manager { return hmc.NewStatic(ctl) }, ""},
		{"pom", func(ctl *hmc.Controller) hmc.Manager { return pom.New(ctl, pom.DefaultConfig().Scale(cfg.Scale)) }, SchemePoM},
	} {
		installed := false
		sys, err := BuildWithManager(cfg, func(ctl *hmc.Controller) hmc.Manager {
			installed = true
			return tc.factory(ctl)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !installed {
			t.Fatalf("%s: factory never invoked", tc.name)
		}
		got, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tc.named == "" {
			continue
		}
		named := cfg
		named.Scheme = tc.named
		sys, err = Build(named)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want.SwapsPerKI == 0 {
			t.Fatalf("%s: the named run swapped nothing; the comparison shows nothing", tc.name)
		}
		if got.SwapsPerKI != want.SwapsPerKI || got.RemapCache != want.RemapCache {
			t.Errorf("%s: custom run SwapsPerKI %v, remap cache %+v; named run %v, %+v",
				tc.name, got.SwapsPerKI, got.RemapCache, want.SwapsPerKI, want.RemapCache)
		}
	}
}

func TestPageSeerEndToEndShapes(t *testing.T) {
	// The managed run must service more data demand from fast memory than
	// the unmanaged one on an NVM-heavy workload.
	cfg := tinyConfig(SchemeStatic, "miniFE")
	cfg.MaxCores = 4
	cfg.InstrPerCore = 500_000
	cfg.Warmup = 400_000
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = SchemePageSeer
	sys2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sys2.Run()
	if err != nil {
		t.Fatal(err)
	}
	sd, _, _ := static.ServiceBreakdown()
	pd, _, pb := ps.ServiceBreakdown()
	if pd+pb <= sd {
		t.Fatalf("PageSeer fast-service %.3f not above static %.3f", pd+pb, sd)
	}
	pos, _, _ := ps.AccessEffectiveness()
	if pos == 0 {
		t.Fatal("no positive accesses despite swapping")
	}
	if ps.PS.TotalSwaps() == 0 {
		t.Fatal("no swaps recorded")
	}
	// The AMMAT improvement over static is workload- and scale-dependent
	// (at 1/128 scale the NVM has more bandwidth headroom than the paper's
	// machine, so unmanaged service is competitive); the service-shape
	// claims above are the invariants.
}

func TestResultsHelpers(t *testing.T) {
	var r Results
	if d, n, b := r.ServiceBreakdown(); d != 0 || n != 0 || b != 0 {
		t.Fatal("empty results breakdown not zero")
	}
	if r.PTEMissRate() != 0 || r.MMUDriverHitRate() != 1 {
		t.Fatal("empty results PTE helpers wrong")
	}
	r.MMU = mmuStatsWith(100)
	r.Ctl.PTEReachedHMC = 25
	r.Ctl.PTEServedByHMC = 20
	if r.PTEMissRate() != 0.25 {
		t.Fatalf("PTEMissRate = %f", r.PTEMissRate())
	}
	if r.MMUDriverHitRate() != 0.8 {
		t.Fatalf("MMUDriverHitRate = %f", r.MMUDriverHitRate())
	}
}

func mmuStatsWith(walks uint64) (s mmu.Stats) {
	s.Walks = walks
	return s
}

func TestScaleOneIsPaperSizes(t *testing.T) {
	cfg := tinyConfig(SchemeStatic, "leslie3d")
	cfg.Scale = 1
	cfg.MaxCores = 1
	cfg.InstrPerCore = 20_000
	cfg.Warmup = 0
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Ctl.Layout.DRAMBytes != 512<<20 || sys.Ctl.Layout.NVMBytes != 4<<30 {
		t.Fatalf("scale 1 layout = %+v", sys.Ctl.Layout)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	_ = mem.PageSize
}

// TestPageSeerColorWithoutDRAMFrame: at scale 4096 PageSeer's PRT has more
// colors than DRAM has frames. A swap into a color with no DRAM frame has
// no victim and is declined; it must never become an exchange of the page
// with its own NVM frame, which reads each line twice.
func TestPageSeerColorWithoutDRAMFrame(t *testing.T) {
	cfg := tinyConfig(SchemePageSeer, "lbm")
	cfg.Scale = 4096
	cfg.InstrPerCore, cfg.Warmup, cfg.MaxCores = 400_000, 250_000, 4
	cfg.Audit = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PS.DeclinedNoVictim == 0 {
		t.Fatal("no swap declined for want of a victim at scale 4096")
	}
}
