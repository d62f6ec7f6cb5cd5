package pagemap

import (
	"bytes"
	"encoding/json"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/obs"
)

const pageShift = 12

func page(n uint64) uint64 { return n << pageShift }

// TestZeroAllocDisabledPageMap pins the disabled pagemap's cost: a
// simulator without a pagemap fires its events into a stream with no
// subscriber, and neither that nor the nil pagemap's Reset allocates. Part
// of the Makefile allocguard gate.
func TestZeroAllocDisabledPageMap(t *testing.T) {
	var p *PageMap
	var stream obs.Probes
	s := &obs.Swap{Addr: page(2), Victim: page(3), HasVictim: true, Trigger: obs.TrigMMU, ID: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		stream.Demand(page(1), true, obs.LatDRAM, 10)
		stream.Functional(page(1), false, true, 20)
		stream.Writeback(page(1), false, 30)
		stream.SwapStarted(s)
		stream.SwapStage(s, 0, 40, 50, 64)
		stream.SwapCommitted(s, 50)
		p.Reset()
	})
	if allocs != 0 {
		t.Fatalf("disabled pagemap allocated %.1f times per run, want 0", allocs)
	}
	if s := p.Summary(); s.UniquePages != 0 || s.TopN != 0 {
		t.Fatalf("nil pagemap summary not zero: %+v", s)
	}
	if r := p.Rows(); r != nil {
		t.Fatalf("nil pagemap rows: %v", r)
	}
}

// swapSeq numbers the swaps the tests start, as the swap engine would.
var swapSeq uint64

// started returns an engine-accepted swap of unit displacing victim, which
// has written nvmWrites lines to NVM.
func started(unit, victim uint64, trig obs.Trigger, nvmWrites uint64) *obs.Swap {
	swapSeq++
	return &obs.Swap{Addr: unit, Victim: victim, HasVictim: true, Trigger: trig, ID: swapSeq, NVMWrites: nvmWrites}
}

// swapIn commits one swap: unit in, victim out.
func swapIn(p *PageMap, unit, victim uint64, trig obs.Trigger, now uint64) {
	p.SwapCommitted(started(unit, victim, trig, 32), now+10)
}

func TestResidencyConservationAuditPasses(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	// Page 1 demanded from NVM, swapped in, used, swapped back out.
	p.Demand(page(1), false, obs.LatNVM, 100)
	swapIn(p, page(1), page(9), obs.TrigMMU, 200)
	p.Demand(page(1), true, obs.LatDRAM, 300)
	swapIn(p, page(2), page(1), obs.TrigRegular, 400)
	// Page 3 only ever seen through the swap buffer: residency unknown.
	p.Demand(page(3), false, obs.LatBuf, 500)
	var a check.Audit
	p.Audit(&a)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	s := p.Summary()
	if s.SwapIns != 2 || s.SwapOuts != 2 {
		t.Fatalf("swap counts: %+v", s)
	}
	if s.InsByTrigger[obs.TrigMMU] != 1 || s.InsByTrigger[obs.TrigRegular] != 1 {
		t.Fatalf("trigger mix: %+v", s.InsByTrigger)
	}
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("r/w mix: reads %d writes %d", s.Reads, s.Writes)
	}
}

// TestMisStampedHookFailsAudit is the mutation proof: a commit whose
// matching evict was dropped (so the next commit lands on a page already in
// DRAM) breaks the swap-ins/swap-outs vs residency-delta law.
func TestMisStampedHookFailsAudit(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	swapIn(p, page(1), page(9), obs.TrigRegular, 100)
	// Mutation: page 1 is swapped in again without ever having been
	// evicted — the double commit cannot flip residency.
	p.SwapCommitted(started(page(1), page(8), obs.TrigRegular, 0), 210)
	var a check.Audit
	p.Audit(&a)
	if a.OK() {
		t.Fatal("audit passed despite a double commit with no intervening evict")
	}
}

func TestResidencyGroundTruth(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	p.Demand(page(1), false, obs.LatNVM, 50)
	swapIn(p, page(1), page(2), obs.TrigPCT, 100)
	truth := map[uint64]bool{page(1): true, page(2): false}
	var a check.Audit
	p.AuditResidency(&a, func(addr uint64) bool { return truth[addr] })
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	// Flip ground truth: the tracked state must now disagree.
	var b check.Audit
	p.AuditResidency(&b, func(addr uint64) bool { return !truth[addr] })
	if b.OK() {
		t.Fatal("ground-truth audit passed against inverted translation")
	}
}

func TestFlapDetection(t *testing.T) {
	p := New(pageShift, 2, 1000)
	// Two round trips 500 cycles apart: inside the window -> one flap.
	swapIn(p, page(1), page(9), obs.TrigRegular, 100)
	swapIn(p, page(2), page(1), obs.TrigRegular, 200) // page 1 out: trip 1 at 210
	swapIn(p, page(1), page(2), obs.TrigRegular, 300)
	swapIn(p, page(3), page(1), obs.TrigRegular, 700) // trip 2 at 710
	s := p.Summary()
	if s.FlapEvents != 1 || s.FlappingPages != 1 {
		t.Fatalf("flaps: %d events, %d pages (round trips %d)", s.FlapEvents, s.FlappingPages, s.RoundTrips)
	}
	// A third round trip far outside the window: no new flap.
	swapIn(p, page(1), page(3), obs.TrigRegular, 100_000)
	swapIn(p, page(4), page(1), obs.TrigRegular, 200_000)
	s = p.Summary()
	if s.FlapEvents != 1 {
		t.Fatalf("flap fired outside window: %d events", s.FlapEvents)
	}
	if s.RoundTrips < 3 {
		t.Fatalf("round trips %d, want >= 3", s.RoundTrips)
	}
}

func TestWastedSwapAndReconciliation(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	// Swap-in never used before eviction: wasted.
	swapIn(p, page(1), page(9), obs.TrigPCT, 100)
	swapIn(p, page(2), page(1), obs.TrigRegular, 200)
	// Swap-in used before eviction: not wasted.
	p.Demand(page(2), false, obs.LatDRAM, 300)
	swapIn(p, page(3), page(2), obs.TrigRegular, 400)
	s := p.Summary()
	if s.UnusedIns != 1 || s.WastedSwapPages != 1 {
		t.Fatalf("wasted accounting: %+v", s)
	}
	// Functional reconciliation: fast-forward moved page 5 to DRAM without
	// hooks; the observation flips tracked state and the audit stays green.
	p.Demand(page(5), false, obs.LatNVM, 500)
	p.Functional(page(5), true, true, 600)
	var a check.Audit
	p.Audit(&a)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if got := p.Summary().FFWrites; got != 1 {
		t.Fatalf("ff writes %d, want 1", got)
	}
}

func TestWearAccounting(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	p.Demand(page(1), true, obs.LatNVM, 100)  // NVM demand write: +1
	p.Demand(page(1), false, obs.LatNVM, 110) // read: no wear
	p.Writeback(page(1), false, 120)          // writeback to NVM: +1
	p.Writeback(page(1), true, 130)           // writeback to DRAM: none
	p.Functional(page(1), true, false, 140)   // functional NVM write: +1
	// The swap writes the victim back to NVM: +64 on page 1.
	p.SwapCommitted(started(page(2), page(1), obs.TrigRegular, 64), 210)
	s := p.Summary()
	if s.NVMWearWrites != 1+1+1+64 {
		t.Fatalf("wear %d, want 67", s.NVMWearWrites)
	}
	rows := p.Rows()
	var wear1 uint64
	for _, r := range rows {
		if r.Page == page(1) {
			wear1 = r.WearWrites
		}
	}
	if wear1 != 67 {
		t.Fatalf("page 1 wear %d, want 67", wear1)
	}
}

func TestHotSetAndTop(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	// Page 1: 90 accesses, page 2: 9, page 3: 1.
	for i := 0; i < 90; i++ {
		p.Demand(page(1), false, obs.LatDRAM, uint64(100+i))
	}
	for i := 0; i < 9; i++ {
		p.Demand(page(2), false, obs.LatNVM, uint64(200+i))
	}
	p.Demand(page(3), false, obs.LatNVM, 300)
	s := p.Summary()
	if s.UniquePages != 3 {
		t.Fatalf("unique pages %d", s.UniquePages)
	}
	if s.HotSet50 != 1 || s.HotSet90 != 1 || s.HotSet99 != 2 {
		t.Fatalf("hot sets: %d/%d/%d", s.HotSet50, s.HotSet90, s.HotSet99)
	}
	swapIn(p, page(2), page(1), obs.TrigRegular, 400)
	s = p.Summary()
	// Both churned once; the access-count tie-break puts page 1 first.
	if s.TopN != 2 || s.Top[0].Page != page(1) || s.Top[1].Page != page(2) {
		t.Fatalf("top churn: %+v", s.Top[:s.TopN])
	}
	if s.Top[0].SwapOuts != 1 || s.Top[1].SwapIns != 1 {
		t.Fatalf("top digest: %+v", s.Top[:2])
	}
}

func TestRowsSortedAndRegions(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	// Two pages in extent 0, one in extent 1 (2MB = 512 pages).
	p.Demand(page(600), false, obs.LatNVM, 100)
	p.Demand(page(5), false, obs.LatDRAM, 200)
	p.Demand(page(1), false, obs.LatDRAM, 300)
	p.Demand(page(1), false, obs.LatDRAM, 310)
	rows := p.Rows()
	if len(rows) != 3 || rows[0].Page != page(1) || rows[2].Page != page(600) {
		t.Fatalf("rows not sorted: %+v", rows)
	}
	regs := p.Regions()
	if len(regs) != 2 {
		t.Fatalf("regions: %+v", regs)
	}
	if regs[0].Region != 0 || regs[0].Pages != 2 || regs[0].Accesses != 3 {
		t.Fatalf("region 0: %+v", regs[0])
	}
	if regs[0].HotPage != page(1) || regs[0].HotShare < 0.6 {
		t.Fatalf("region 0 hottest: %+v", regs[0])
	}
	if regs[1].Region != uint64(1)<<RegionShift || regs[1].Pages != 1 {
		t.Fatalf("region 1: %+v", regs[1])
	}
}

// TestRowsCSVJSONRoundTrip: the per-page rows and the 2MB regions write
// byte-identical CSV straight and after a trip through their JSON export.
func TestRowsCSVJSONRoundTrip(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	p.Demand(page(600), true, obs.LatNVM, 100)
	p.Demand(page(1), false, obs.LatDRAM, 300)
	p.Demand(page(1), false, obs.LatBuf, 310)
	p.Demand(page(5), false, obs.LatDRAM, 320)
	roundTrip(t, RowColumns, p.Rows())
	roundTrip(t, RegionColumns, p.Regions())
}

func roundTrip[T any](t *testing.T, cols obs.Columns[T], rows []T) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("no rows to round-trip")
	}
	var direct, js, viaJSON bytes.Buffer
	if err := cols.WriteCSV(&direct, rows); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSON(&js, rows); err != nil {
		t.Fatal(err)
	}
	var parsed []T
	if err := json.NewDecoder(&js).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	if err := cols.WriteCSV(&viaJSON, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaJSON.Bytes()) {
		t.Fatalf("CSV differs after a JSON round trip:\ndirect:\n%s\nvia JSON:\n%s", direct.String(), viaJSON.String())
	}
}

func TestResetKeepsResidency(t *testing.T) {
	p := New(pageShift, 2, 1_000_000)
	swapIn(p, page(1), page(2), obs.TrigMMU, 100)
	// A swap straddling the reset: started before, commits after.
	sw := started(page(3), page(1), obs.TrigRegular, 0)
	p.Reset()
	if s := p.Summary(); s.UniquePages != 0 || s.SwapIns != 0 {
		t.Fatalf("reset left stats behind: %+v", s)
	}
	p.SwapCommitted(sw, 200)
	truth := map[uint64]bool{page(1): false, page(2): false, page(3): true}
	var a check.Audit
	p.Audit(&a)
	p.AuditResidency(&a, func(addr uint64) bool { return truth[addr] })
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	s := p.Summary()
	if s.SwapIns != 1 || s.SwapOuts != 1 {
		t.Fatalf("straddling swap lost: %+v", s)
	}
}

func TestTimelineCompression(t *testing.T) {
	p := New(pageShift, 1, 1_000_000)
	p.Demand(page(1), false, obs.LatDRAM, 0)
	// An access far in the future forces repeated bin-width doubling.
	p.Demand(page(1), false, obs.LatDRAM, 1<<40)
	rows := p.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	tl := rows[0].Timeline
	if tl&1 == 0 || tl&(tl-1) == 0 {
		t.Fatalf("timeline %#x: want bit 0 plus a later bit", tl)
	}
	if d := p.Summary().ReuseDist; d.Count != 1 || d.Max != 1<<40 {
		t.Fatalf("reuse distance: %+v", d)
	}
}
