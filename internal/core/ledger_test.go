package core

import (
	"testing"

	"pageseer/internal/cache"
	"pageseer/internal/check"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/obs/ledger"
)

// TestLedgerVictimReRequestMidSwap is the eviction-accounting regression
// test on the real machinery: a two-page workload where page one (NVM-hot)
// triggers a swap and page two is the victim the swap is pushing out of
// DRAM. Re-requesting the victim while the exchange is still in flight must
// classify the swap Late — not count as its payoff.
func TestLedgerVictimReRequestMidSwap(t *testing.T) {
	cfg := testConfig()
	sim, ctl, ps := testRig(cfg)
	led := ledger.New(mem.PageShift)
	ctl.Attach(led)

	p := nvmPage(ctl, 3)
	for i := 0; i < int(cfg.HPTThreshold)-1; i++ {
		miss(sim, ctl, 1, p)
	}
	// Page one's final miss crosses the HPT threshold and starts the swap.
	// Don't drain: catch the exchange in flight.
	ctl.Access(p.Addr(), false, cache.Meta{PID: 1}, nil)
	for len(led.Records()) == 0 {
		if !sim.Step() {
			t.Fatalf("event queue drained before a swap started (%s)", ps.DumpState())
		}
	}
	rec := led.Records()[0]
	if rec.Committed {
		t.Fatal("swap already committed; cannot exercise the in-flight window")
	}
	// Page two: the victim the swap is displacing, re-requested mid-swap.
	victim := mem.Addr(rec.Victim << mem.PageShift)
	ctl.Access(victim, false, cache.Meta{PID: 1}, nil)
	sim.Drain(0)

	if n := ps.Stats().SwapsCompleted[SwapRegular]; n != 1 {
		t.Fatalf("regular swaps completed = %d, want 1", n)
	}
	s := led.Summary()
	if len(led.Records()) != 1 {
		t.Fatalf("%d ledger records, want 1", len(led.Records()))
	}
	if !led.Records()[0].Late {
		t.Fatal("victim re-request mid-swap did not mark the swap late")
	}
	if s.Late != 1 {
		t.Fatalf("late = %d, want 1", s.Late)
	}
	// The only payoff that may be counted is the incoming page's own demand
	// (the triggering miss, which raced the transfer); the victim's
	// re-request must not add one.
	if s.TotalUseful() > 1 {
		t.Fatalf("victim re-request counted as swap payoff: %+v", s)
	}
}

// TestRefusedStartKeepsHint drives the engine-refusal path on the real
// machinery: with every swap start refused, an MMU-hinted page's regular
// swap is turned away and requeued. The refusal must reach no observer —
// no ledger record, the hint still pending — and once starts are admitted
// again, the retry must consume the hint.
func TestRefusedStartKeepsHint(t *testing.T) {
	cfg := testConfig()
	sim, ctl, ps := testRig(cfg)
	led := ledger.New(mem.PageShift)
	ctl.Attach(led)
	ctl.SetInjector(check.NewInjector(check.FaultPlan{Kind: check.FaultSwapExhaustion, Rate: 1}))

	p, q := nvmPage(ctl, 3), nvmPage(ctl, 5)
	const hintCycle = 7
	ctl.MMUHint(mmu.Hint{PID: 1, PTELine: 0x4000, LeafPPN: p, Cycle: hintCycle})
	sim.Drain(0)
	for i := 0; i < int(cfg.HPTThreshold); i++ {
		miss(sim, ctl, 1, p)
	}
	if ctl.Engine.Stats().OpsRejected == 0 {
		t.Fatalf("no swap start was refused (%s)", ps.DumpState())
	}
	if n := len(led.Records()); n != 0 {
		t.Fatalf("refused start left %d ledger record(s)", n)
	}

	// Admit starts again. q's swap runs, and its completion drains the
	// Swap Driver queue, retrying p.
	ctl.SetInjector(nil)
	for i := 0; i < int(cfg.HPTThreshold); i++ {
		miss(sim, ctl, 1, q)
	}
	sim.Drain(0)
	var got *ledger.Record
	for i, r := range led.Records() {
		if r.Unit == uint64(p) {
			got = &led.Records()[i]
		}
	}
	if got == nil {
		t.Fatalf("the refused swap was never retried: %d record(s) (%s)", len(led.Records()), ps.DumpState())
	}
	if !got.Hinted || got.HintCycle != hintCycle {
		t.Fatalf("retry lost the MMU hint: %+v", *got)
	}
	if started, _, _, _ := led.Counts(); started != ctl.Engine.Stats().OpsStarted {
		t.Fatalf("ledger started %d swaps, engine accepted %d", started, ctl.Engine.Stats().OpsStarted)
	}
}
