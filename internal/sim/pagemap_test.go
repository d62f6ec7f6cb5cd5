package sim

import (
	"errors"
	"reflect"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/obs"
	"pageseer/internal/obs/pagemap"
)

// pagemapConfig is the pagemap probe configuration: GemsFDTD at the quick
// campaign scale, whose phase shifts cycle pages in and out of DRAM — the
// regime that exercises hot sets, churn counters, and the flap detector in
// one short run.
func pagemapConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Workload = "GemsFDTD"
	cfg.InstrPerCore = 400_000
	cfg.Warmup = 250_000
	cfg.MaxCores = 4
	cfg.Obs.PageMap = true
	cfg.Audit = true // registers the pagemap conservation + residency audits
	return cfg
}

// TestPageMapSmoke is the tier-1 gate for the address-space telemetry layer:
// a PageSeer run with the pagemap attached must see pages in every service
// source, produce coherent hot sets, and count swap churn and NVM wear —
// and, with the pagemap off, produce byte-identical Results except for the
// PageMap field itself.
func TestPageMapSmoke(t *testing.T) {
	sys, err := Build(pagemapConfig(SchemePageSeer))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	pm := res.PageMap
	if pm.UniquePages == 0 {
		t.Fatal("pagemap-on run tracked no pages")
	}
	for src := obs.LatSource(0); src < obs.NumLatSources; src++ {
		if pm.DemandBySource[src] == 0 {
			t.Errorf("service source %v saw no demand accesses; the heat split cannot separate the memory tiers", src)
		}
	}
	if pm.Reads == 0 || pm.Writes == 0 {
		t.Errorf("read/write mix degenerate: %d reads, %d writes", pm.Reads, pm.Writes)
	}
	if pm.SwapIns == 0 || pm.SwapOuts == 0 {
		t.Errorf("PageSeer run recorded no churn: %d ins, %d outs", pm.SwapIns, pm.SwapOuts)
	}
	if pm.NVMWearWrites == 0 {
		t.Error("no NVM wear writes recorded")
	}
	if !(pm.HotSet50 <= pm.HotSet90 && pm.HotSet90 <= pm.HotSet99 && pm.HotSet99 <= pm.UniquePages) {
		t.Errorf("hot-set sizes not monotone: p50=%d p90=%d p99=%d of %d pages",
			pm.HotSet50, pm.HotSet90, pm.HotSet99, pm.UniquePages)
	}
	if pm.ResidentDRAM == 0 {
		t.Error("no pages tracked DRAM-resident at end of run")
	}
	if pm.TopN == 0 || pm.Top[0].SwapIns+pm.Top[0].SwapOuts == 0 {
		t.Errorf("churn leaderboard empty: TopN=%d", pm.TopN)
	}

	// Off-run: the pagemap must not perturb the simulation.
	off := pagemapConfig(SchemePageSeer)
	off.Obs.PageMap = false
	osys, err := Build(off)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := osys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ores.PageMap, pagemap.Summary{}) {
		t.Fatal("pagemap-off run filled Results.PageMap")
	}
	res.PageMap = pagemap.Summary{}
	if !reflect.DeepEqual(res, ores) {
		t.Fatalf("the pagemap perturbed the simulation:\non:  %+v\noff: %+v", res, ores)
	}
}

// TestPageMapFlapDetection pins the flap detector on the scheme that
// actually thrashes: PoM's interval remap ping-pongs 2KB segments on quick
// GemsFDTD, so round trips complete and land inside the default window.
// (PageSeer avoiding flaps on the same run is the paper's point — its MQ
// promotion filter keeps ping-pong pages out of DRAM.)
func TestPageMapFlapDetection(t *testing.T) {
	sys, err := Build(pagemapConfig(SchemePoM))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	pm := res.PageMap
	if pm.RoundTrips == 0 {
		t.Error("no DRAM<->NVM round trips completed")
	}
	if pm.FlapEvents == 0 || pm.FlappingPages == 0 {
		t.Errorf("default flap window detected nothing on PoM/GemsFDTD: %d events on %d pages",
			pm.FlapEvents, pm.FlappingPages)
	}
	if pm.FlappingPages > pm.UniquePages {
		t.Errorf("flapping pages %d exceed unique pages %d", pm.FlappingPages, pm.UniquePages)
	}
}

// TestPageMapConservation runs every scheme with the pagemap and the audit
// attached: the end-of-run invariant sweep cross-checks the per-source
// demand split against the controller's service counters, the trigger mix
// against the swap-in total, and the tracked residency against each
// manager's translation ground truth. CheckInvariants re-runs the sweep
// explicitly to prove it is green, not merely skipped.
func TestPageMapConservation(t *testing.T) {
	for _, sch := range []Scheme{SchemeStatic, SchemePageSeer, SchemePageSeerNoCorr, SchemePoM, SchemeMemPod} {
		cfg := tinyConfig(sch, "lbm")
		cfg.Obs.PageMap = true
		cfg.Audit = true
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Errorf("%s: pagemap audit failed: %v", sch, err)
		}
		pm := res.PageMap
		if pm.UniquePages == 0 || pm.DemandTotal() == 0 {
			t.Errorf("%s: pagemap empty: %d pages, %d accesses", sch, pm.UniquePages, pm.DemandTotal())
		}
		if sch == SchemeStatic && (pm.SwapIns != 0 || pm.SwapOuts != 0) {
			t.Errorf("static run recorded churn: %d ins, %d outs", pm.SwapIns, pm.SwapOuts)
		}
	}
}

// TestPageMapMutationFailsAudit proves the conservation audit has teeth: one
// phantom demand access — a hook firing without a matching controller
// service — must fail CheckInvariants with check.ErrAuditFailed.
func TestPageMapMutationFailsAudit(t *testing.T) {
	cfg := tinyConfig(SchemePageSeer, "lbm")
	cfg.Obs.PageMap = true
	cfg.Audit = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("clean run failed the audit: %v", err)
	}
	// A mis-stamped hook: demand recorded against DRAM service that the
	// controller never performed.
	sys.pm.Demand(0, false, obs.LatDRAM, 0)
	err = sys.CheckInvariants()
	if err == nil {
		t.Fatal("audit passed despite a phantom demand access")
	}
	if !errors.Is(err, check.ErrAuditFailed) {
		t.Fatalf("audit error does not wrap ErrAuditFailed: %v", err)
	}
}

// TestPageMapSampled pins the sampled-mode contract: functional
// fast-forward feeds the heat map through the Functional hook (FFReads /
// FFWrites), the table accumulates across every window rather than
// resetting per window, and the internal conservation laws hold (the audit
// runs inside each detailed window; the exact per-source cross-checks are
// detailed-mode-only and must gate themselves off).
func TestPageMapSampled(t *testing.T) {
	_, cfg := quickSampleConfig()
	cfg.Obs.PageMap = true
	cfg.Audit = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	pm := res.PageMap
	if pm.UniquePages == 0 || pm.DemandTotal() == 0 {
		t.Fatal("sampled run tracked nothing")
	}
	if pm.FFReads == 0 || pm.FFWrites == 0 {
		t.Errorf("fast-forward gaps fed no functional accesses: %d reads, %d writes", pm.FFReads, pm.FFWrites)
	}
	if pm.FFReads+pm.FFWrites <= pm.Reads+pm.Writes {
		t.Errorf("sampled run should see more functional than detailed accesses (~92%% of the run is fast-forwarded): ff=%d detailed=%d",
			pm.FFReads+pm.FFWrites, pm.Reads+pm.Writes)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Errorf("sampled pagemap audit failed: %v", err)
	}
}
