package sim

import (
	"reflect"
	"sync"
	"testing"

	"pageseer/internal/obs"
	"pageseer/internal/obs/ledger"
)

// TestEffectivenessSmoke is the tier-1 gate for the swap-provenance ledger:
// a PageSeer run with the ledger on must attribute swaps to all three paper
// trigger classes (HPT regular, PCT prefetch, MMU hint), produce accuracy
// and coverage in [0,1], and satisfy the conservation law useful + unused +
// open == started — which the end-of-run audit also checks. GemsFDTD at the
// quick-campaign scale is the probe workload: its phase-shift structure
// cycles pages through DRAM and back, so hot pages return via page walks
// with trained PCT history — the regime the MMU trigger exists for.
func TestEffectivenessSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "GemsFDTD"
	cfg.InstrPerCore = 400_000
	cfg.Warmup = 250_000
	cfg.MaxCores = 4
	cfg.Obs.Ledger = true
	cfg.Audit = true // registers the ledger's conservation audit
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	eff := res.Effectiveness
	for _, trig := range []obs.Trigger{obs.TrigRegular, obs.TrigPCT, obs.TrigMMU} {
		if eff.Started[trig] == 0 {
			t.Errorf("trigger class %v started no swaps; effectiveness cannot compare the paper's mechanisms", trig)
		}
	}
	if eff.Accuracy < 0 || eff.Accuracy > 1 {
		t.Errorf("accuracy %v outside [0,1]", eff.Accuracy)
	}
	if eff.Coverage < 0 || eff.Coverage > 1 {
		t.Errorf("coverage %v outside [0,1]", eff.Coverage)
	}
	if eff.DemandTotal == 0 {
		t.Error("ledger saw no demand accesses")
	}
	if got, want := eff.TotalUseful()+eff.TotalUnused()+eff.TotalOpen(), eff.TotalStarted(); got != want {
		t.Errorf("conservation violated: useful+unused+open = %d, started = %d", got, want)
	}
	if eff.TotalUseful() == 0 {
		t.Error("no swap ever paid off; accuracy metric is vacuous")
	}
}

// TestEffectivenessAllSchemes: every scheme runs with the ledger attached
// and reports a conserved, internally consistent digest — the property that
// makes effectiveness comparable across PageSeer and the baselines.
func TestEffectivenessAllSchemes(t *testing.T) {
	for _, sch := range []Scheme{SchemeStatic, SchemePageSeer, SchemePageSeerNoCorr, SchemePoM, SchemeMemPod} {
		cfg := tinyConfig(sch, "lbm")
		cfg.Obs.Ledger = true
		cfg.Audit = true
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		eff := res.Effectiveness
		if got, want := eff.TotalUseful()+eff.TotalUnused()+eff.TotalOpen(), eff.TotalStarted(); got != want {
			t.Errorf("%s: conservation violated: %d != %d", sch, got, want)
		}
		if sch != SchemeStatic && eff.TotalStarted() == 0 {
			t.Errorf("%s: swapping scheme started no ledger-tracked swaps", sch)
		}
		if sch == SchemeStatic && eff.TotalStarted() != 0 {
			t.Errorf("%s: static scheme recorded %d swaps", sch, eff.TotalStarted())
		}
		if eff.DemandCovered > eff.DemandTotal {
			t.Errorf("%s: covered %d > total %d", sch, eff.DemandCovered, eff.DemandTotal)
		}
	}
}

// TestLedgerResultsOtherwiseIdentical pins zero perturbation: a ledger-on
// run must produce Results identical to a ledger-off run in every field
// except Effectiveness itself (which only the ledger fills).
func TestLedgerResultsOtherwiseIdentical(t *testing.T) {
	off := tinyConfig(SchemePageSeer, "lbm")
	on := tinyConfig(SchemePageSeer, "lbm")
	on.Obs.Ledger = true
	run := func(cfg Config) Results {
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
	a, b := run(off), run(on)
	if b.Effectiveness.TotalStarted() == 0 {
		t.Fatal("ledger-on run recorded nothing")
	}
	b.Effectiveness = ledger.Summary{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ledger perturbed the simulation:\noff: %+v\non:  %+v", a, b)
	}
}

// TestEffectivenessDeterministicAcrossParallelism: four concurrent
// ledger-on runs of the same config produce DeepEqual Effectiveness — the
// property that lets -j1 and -j4 campaigns emit identical tables. Under
// -race this also proves per-run ledgers share no state.
func TestEffectivenessDeterministicAcrossParallelism(t *testing.T) {
	const n = 4
	results := make([]Results, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := tinyConfig(SchemePageSeer, "lbm")
			cfg.Obs.Ledger = true
			sys, err := Build(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = sys.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("parallel ledger runs diverged:\nrun 0: %+v\nrun %d: %+v",
				results[0].Effectiveness, i, results[i].Effectiveness)
		}
	}
}
