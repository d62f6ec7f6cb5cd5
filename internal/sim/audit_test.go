package sim

import (
	"os"
	"reflect"
	"testing"

	"pageseer/internal/check"
)

// runWith executes one run of wl/scheme with the given audit/fault settings.
func runWith(t *testing.T, wl string, scheme Scheme, audit bool, faults check.FaultPlan) Results {
	t.Helper()
	cfg := tinyConfig(scheme, wl)
	cfg.Audit = audit
	cfg.Faults = faults
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s/%s audit=%v faults=%v: %v", wl, scheme, audit, faults.Kind, err)
	}
	return res
}

// TestAuditPassesAndMatchesBaseline is the invariants gate: every scheme's
// run must pass the end-of-run audit, and enabling it must not change a
// single Results field — the audit observes, never perturbs. The full quick
// campaign runs under PAGESEER_INVARIANTS_FULL=1; the default subset keeps
// `make tier1` fast.
func TestAuditPassesAndMatchesBaseline(t *testing.T) {
	wls := []string{"lbm"}
	if os.Getenv("PAGESEER_INVARIANTS_FULL") != "" {
		wls = []string{"lbm", "GemsFDTD", "miniFE", "barnes", "mix6"}
	}
	for _, wl := range wls {
		for _, sch := range []Scheme{SchemeStatic, SchemePageSeer, SchemePoM, SchemeMemPod} {
			base := runWith(t, wl, sch, false, check.FaultPlan{})
			audited := runWith(t, wl, sch, true, check.FaultPlan{})
			// Results.Watchdog reports the audit apparatus itself (sample
			// counts from the watchdog armed by Config.Audit), so it may
			// differ; everything about the simulated machine must not.
			audited.Watchdog = check.WatchdogStats{}
			if !reflect.DeepEqual(base, audited) {
				t.Errorf("%s/%s: enabling audits changed Results:\nbase:    %+v\naudited: %+v",
					wl, sch, base, audited)
			}
		}
	}
}

// TestChaosSmoke always exercises one fault family end to end: the injected
// backpressure must leave a system that still passes every invariant audit.
func TestChaosSmoke(t *testing.T) {
	runWith(t, "lbm", SchemePageSeer, true,
		check.FaultPlan{Kind: check.FaultSwapExhaustion, Seed: 7})
}

// TestChaosMatrix is the full fault matrix (every injectable kind against
// PageSeer and PoM, audits on); gated behind PAGESEER_CHAOS=1 because it
// multiplies run count. `make chaos` runs it under -race.
func TestChaosMatrix(t *testing.T) {
	if os.Getenv("PAGESEER_CHAOS") == "" {
		t.Skip("set PAGESEER_CHAOS=1 (or run `make chaos`) for the full fault matrix")
	}
	for _, kind := range check.FaultKinds() {
		for _, sch := range []Scheme{SchemePageSeer, SchemePoM} {
			for seed := uint64(1); seed <= 3; seed++ {
				runWith(t, "lbm", sch, true, check.FaultPlan{Kind: kind, Seed: seed})
			}
		}
	}
}

// TestChaosDeterministic pins the injector contract: the same fault plan
// yields bit-identical Results.
func TestChaosDeterministic(t *testing.T) {
	plan := check.FaultPlan{Kind: check.FaultMetaThrash, Seed: 11}
	a := runWith(t, "lbm", SchemePageSeer, true, plan)
	b := runWith(t, "lbm", SchemePageSeer, true, plan)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fault-injected runs diverged under identical plans")
	}
}
