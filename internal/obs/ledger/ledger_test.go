package ledger

import (
	"reflect"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/obs"
)

// Event helpers: drive the ledger the way the swap engine and controller do.

func start(l *Ledger, id, addr, victim uint64, trig obs.Trigger, req, now, dramB, nvmB uint64) *obs.Swap {
	s := &obs.Swap{
		Addr: addr, Victim: victim, HasVictim: true, Trigger: trig, Request: req,
		ID: id, Start: now, BytesDRAM: dramB, BytesNVM: nvmB,
	}
	l.SwapStarted(s)
	return s
}

func hint(l *Ledger, addr, cycle uint64) { l.Hint(addr, cycle, cycle, 0, 0) }
func demand(l *Ledger, addr, now uint64) { l.Demand(addr, false, obs.LatDRAM, now) }

// commit reports the remap commit alone (the victim's eviction is left to
// a later test step); the engine reports both together.
func commit(l *Ledger, s *obs.Swap, now uint64) {
	noVictim := *s
	noVictim.HasVictim = false
	l.SwapCommitted(&noVictim, now)
}

// evict reports addr's unit leaving DRAM as some later swap's victim.
func evict(l *Ledger, addr, now uint64) {
	l.SwapCommitted(&obs.Swap{Victim: addr, HasVictim: true}, now)
}

// TestZeroAllocDisabledLedger pins the zero-cost-when-off contract for the
// provenance ledger: a simulator without a ledger has no subscriber on its
// event stream, and every event a hot path fires into that disabled
// stream — and every digest call on the nil ledger — must allocate
// nothing. Part of the Makefile `allocguard` tier-1 gate.
func TestZeroAllocDisabledLedger(t *testing.T) {
	var l *Ledger
	var stream obs.Probes
	s := &obs.Swap{Addr: 0x1000, Victim: 0x2000, HasVictim: true, Trigger: obs.TrigMMU, ID: 1}
	n := testing.AllocsPerRun(1000, func() {
		stream.Hint(0x1000, 10, 10, 0, 1)
		stream.SwapStarted(s)
		stream.SwapStage(s, 0, 20, 100, 64)
		stream.SwapCommitted(s, 200)
		stream.Demand(0x1000, false, obs.LatDRAM, 300)
		l.Reset()
		l.Counts()
	})
	if n != 0 {
		t.Fatalf("disabled-ledger hot path allocates %.1f times per call set, want 0", n)
	}
}

func TestTriggerAndOutcomeStrings(t *testing.T) {
	for trig, want := range map[obs.Trigger]string{
		obs.TrigRegular: "regular", obs.TrigPCT: "pct", obs.TrigMMU: "mmu", obs.TrigFollower: "follower",
	} {
		if got := trig.String(); got != want {
			t.Errorf("Trigger(%d).String() = %q, want %q", trig, got, want)
		}
	}
	for o, want := range map[Outcome]string{
		OutcomeOpen: "open", OutcomeUseful: "useful", OutcomeUnused: "unused",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

// TestUsefulSwapWithHintLeadTime walks the happy path: hint, start, stages,
// commit, first demand. The record must resolve Useful (not Late), carry the
// hint, and feed the lead-time histogram with first-use minus hint cycles.
func TestUsefulSwapWithHintLeadTime(t *testing.T) {
	l := New(12)
	hint(l, 0x5000, 100)
	id := start(l, 1, 0x5000, 0x9000, obs.TrigMMU, 150, 160, 8192, 8192)
	if got := l.Records()[0].ID; got != 1 {
		t.Fatalf("first record ID = %d, want the swap's ID 1", got)
	}
	l.SwapStage(id, 0, 0, 40, 64)
	commit(l, id, 400)
	demand(l, 0x5040, 900) // same page, different line
	s := l.Summary()
	if s.Useful[obs.TrigMMU] != 1 || s.TotalUseful() != 1 {
		t.Fatalf("useful[mmu] = %d, want 1", s.Useful[obs.TrigMMU])
	}
	if s.Late != 0 {
		t.Fatalf("late = %d, want 0 (demand arrived after commit)", s.Late)
	}
	if s.LeadTime.Count != 1 || s.LeadTime.Max != 800 {
		t.Fatalf("lead time dist = %+v, want one sample of 900-100=800", s.LeadTime)
	}
	r := l.Records()[0]
	if !r.Hinted || r.HintCycle != 100 || r.FirstUseCycle != 900 || r.Stages != 1 || r.StageCycles[0] != 40 {
		t.Fatalf("record fields wrong: %+v", r)
	}
	if s.Accuracy != 1 {
		t.Fatalf("accuracy = %v, want 1", s.Accuracy)
	}
	if s.DemandTotal != 1 || s.DemandCovered != 1 || s.Coverage != 1 {
		t.Fatalf("coverage wrong: %+v", s)
	}
}

// TestDemandBeforeCommitIsLate: a demand hit on the incoming unit while the
// transfer is still in flight counts useful but flags the swap late — the
// data arrived, just not soon enough to hide the swap.
func TestDemandBeforeCommitIsLate(t *testing.T) {
	l := New(12)
	id := start(l, 1, 0x5000, 0x9000, obs.TrigRegular, 150, 160, 8192, 8192)
	demand(l, 0x5000, 200) // pre-commit
	commit(l, id, 400)
	s := l.Summary()
	if s.Useful[obs.TrigRegular] != 1 || s.Late != 1 {
		t.Fatalf("useful=%d late=%d, want 1/1", s.Useful[obs.TrigRegular], s.Late)
	}
}

// TestEvictedUnusedChargesWaste: eviction before any demand resolves the
// record Unused and charges its transfer bytes as waste.
func TestEvictedUnusedChargesWaste(t *testing.T) {
	l := New(12)
	id := start(l, 1, 0x5000, 0x9000, obs.TrigPCT, 150, 160, 4096, 8192)
	commit(l, id, 400)
	evict(l, 0x5000, 1000)
	s := l.Summary()
	if s.Unused[obs.TrigPCT] != 1 || s.TotalUseful() != 0 {
		t.Fatalf("unused[pct] = %d, want 1", s.Unused[obs.TrigPCT])
	}
	if s.WastedDRAMBytes != 4096 || s.WastedNVMBytes != 8192 {
		t.Fatalf("waste = %d/%d, want 4096/8192", s.WastedDRAMBytes, s.WastedNVMBytes)
	}
	// A demand after eviction must not resurrect the record.
	demand(l, 0x5000, 1100)
	if s2 := l.Summary(); s2.TotalUseful() != 0 || s2.DemandCovered != 0 {
		t.Fatalf("post-eviction demand resurrected the record: %+v", s2)
	}
}

// TestVictimReRequestIsLateNotUseful is the eviction-accounting regression
// test: while a swap is in flight, a demand for the *victim* (the data being
// pushed out) marks the swap Late — the machinery displaced data the core
// still wanted — and must NOT count as the swap's payoff.
func TestVictimReRequestIsLateNotUseful(t *testing.T) {
	l := New(12)
	id := start(l, 1, 0x5000, 0x9000, obs.TrigRegular, 100, 110, 8192, 8192)
	demand(l, 0x9000, 200) // victim re-requested mid-swap
	s := l.Summary()
	if s.TotalUseful() != 0 {
		t.Fatalf("victim re-request counted useful: %+v", s)
	}
	if s.Late != 1 {
		t.Fatalf("late = %d, want 1", s.Late)
	}
	if r := l.Records()[0]; r.Outcome != OutcomeOpen || !r.Late {
		t.Fatalf("record = %+v, want Open+Late", r)
	}
	// After the remap commits the victim window closes: further demands for
	// the (now NVM-resident) victim are ordinary slow accesses, not lateness.
	commit(l, id, 400)
	demand(l, 0x9000, 500)
	if s2 := l.Summary(); s2.Late != 1 {
		t.Fatalf("post-commit victim demand changed lateness: %+v", s2)
	}
}

// TestResetDropsStaleIDs: records opened before Reset must ignore late
// stage/commit events (their ops were started pre-reset), and new records
// carry their swap's fresh engine-assigned ID.
func TestResetDropsStaleIDs(t *testing.T) {
	l := New(12)
	stale := start(l, 1, 0x5000, 0x9000, obs.TrigRegular, 100, 110, 8192, 8192)
	l.Reset()
	if got, _, _, _ := l.Counts(); got != 0 {
		t.Fatalf("started = %d after reset, want 0", got)
	}
	commit(l, stale, 400) // stale callback: must be ignored
	l.SwapStage(stale, 0, 0, 40, 64)
	if len(l.Records()) != 0 {
		t.Fatalf("stale callback revived a record")
	}
	fresh := start(l, 2, 0x6000, 0xa000, obs.TrigRegular, 500, 510, 8192, 8192)
	if got := l.Records()[0].ID; got != fresh.ID {
		t.Fatalf("fresh record ID %d, want the swap's ID %d", got, fresh.ID)
	}
	commit(l, fresh, 600)
	demand(l, 0x6000, 700)
	if s := l.Summary(); s.TotalUseful() != 1 {
		t.Fatalf("fresh record not tracked after reset: %+v", s)
	}
}

// TestSummaryDeterministicAcrossCopies: Summary uses only fixed-size fields,
// so two identically-driven ledgers produce DeepEqual summaries.
func TestSummaryDeterministicAcrossCopies(t *testing.T) {
	drive := func() Summary {
		l := New(12)
		hint(l, 0x5000, 10)
		a := start(l, 1, 0x5000, 0x9000, obs.TrigMMU, 20, 30, 8192, 8192)
		commit(l, a, 100)
		demand(l, 0x5000, 150)
		b := start(l, 2, 0x7000, 0xb000, obs.TrigPCT, 160, 170, 8192, 8192)
		commit(l, b, 300)
		evict(l, 0x7000, 400)
		return l.Summary()
	}
	if a, b := drive(), drive(); !reflect.DeepEqual(a, b) {
		t.Fatalf("summaries diverged:\n%+v\n%+v", a, b)
	}
}

// TestConservationAuditFires is the mutation test for the conservation law:
// a healthy ledger passes the audit, and each hand-corrupted counter makes
// it fail — proving the audit actually guards the invariant.
func TestConservationAuditFires(t *testing.T) {
	build := func() *Ledger {
		l := New(12)
		a := start(l, 1, 0x5000, 0x9000, obs.TrigRegular, 20, 30, 8192, 8192)
		commit(l, a, 100)
		demand(l, 0x5000, 150)
		b := start(l, 2, 0x7000, 0xb000, obs.TrigPCT, 160, 170, 8192, 8192)
		commit(l, b, 300)
		evict(l, 0x7000, 400)
		start(l, 3, 0xd000, 0xf000, obs.TrigMMU, 500, 510, 8192, 8192) // stays open
		return l
	}
	audit := func(l *Ledger) error {
		a := &check.Audit{}
		l.Audit(a)
		return a.Err()
	}
	if err := audit(build()); err != nil {
		t.Fatalf("healthy ledger fails its own audit: %v", err)
	}
	mutations := map[string]func(l *Ledger){
		"useful overcount":       func(l *Ledger) { l.useful[obs.TrigRegular]++ },
		"unused overcount":       func(l *Ledger) { l.unused[obs.TrigPCT]++ },
		"started undercount":     func(l *Ledger) { l.started[obs.TrigRegular]-- },
		"lost registration":      func(l *Ledger) { delete(l.in, l.records[2].Unit) },
		"stale victim entry":     func(l *Ledger) { l.vict[0xdead] = 0 },
		"covered beyond total":   func(l *Ledger) { l.demandCovered = l.demandTotal + 1 },
		"open record mislabeled": func(l *Ledger) { l.records[2].Outcome = OutcomeUseful },
	}
	for name, mutate := range mutations {
		l := build()
		mutate(l)
		if err := audit(l); err == nil {
			t.Errorf("mutation %q not caught by the audit", name)
		}
	}
}

// TestUnitShiftKeysIdentity: two addresses in the same swap unit are the
// same identity; the shift is per-scheme (page, segment, line).
func TestUnitShiftKeysIdentity(t *testing.T) {
	l := New(11) // 2KB segments (PoM/MemPod)
	id := start(l, 1, 0x4800, 0x9000, obs.TrigRegular, 10, 20, 2048, 2048)
	commit(l, id, 100)
	demand(l, 0x4fff, 200) // last byte of the same 2KB segment
	if s := l.Summary(); s.TotalUseful() != 1 {
		t.Fatalf("same-segment demand missed: %+v", s)
	}
	l2 := New(12)
	if l2.Unit(0x4800) == l2.Unit(0x5000) {
		t.Fatal("page-shift ledger merged distinct pages")
	}
}
