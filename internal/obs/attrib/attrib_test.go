package attrib

import (
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/obs"
)

// TestZeroAllocDisabledAttrib pins the zero-cost-when-off contract: every
// stamp a simulator hot path makes against a disabled (nil) vector or
// accumulator must allocate nothing. This is the Makefile `allocguard`
// tier-1 gate for the attribution layer.
func TestZeroAllocDisabledAttrib(t *testing.T) {
	var v *Vector
	var a *Attrib
	n := testing.AllocsPerRun(1000, func() {
		v.Begin(10)
		v.Take(CompL1, 12)
		v.AddUpTo(CompSwapXfer, 3)
		v.TakePTE(20)
		v.SetWalk(true)
		v.SetClass(ClassMMU)
		a.Fold(0, v, 30)
		a.CorrEval(5)
		a.AddCore(0, 1)
	})
	if n != 0 {
		t.Fatalf("disabled attrib hot path allocates %.1f times per request, want 0", n)
	}
}

// TestZeroAllocEnabledVector: even with attribution on, stamping and
// folding ride pooled records and preallocated accumulators — no per
// request allocations.
func TestZeroAllocEnabledVector(t *testing.T) {
	a := New(2)
	var v Vector
	var cyc uint64
	n := testing.AllocsPerRun(1000, func() {
		cyc += 100
		v.Begin(cyc)
		v.Take(CompTLB, cyc+2)
		v.Take(CompL1, cyc+4)
		v.Take(CompDRAM, cyc+40)
		a.Fold(int(cyc/100)%2, &v, cyc+40)
	})
	if n != 0 {
		t.Fatalf("enabled attrib hot path allocates %.1f times per request, want 0", n)
	}
}

// TestVectorTelescopes pins the core accounting identity: component
// charges always sum to (last stamp - begin), so a fully stamped request
// conserves its end-to-end latency exactly.
func TestVectorTelescopes(t *testing.T) {
	var v Vector
	v.Begin(100)
	v.Take(CompTLB, 103)
	v.Take(CompL1, 105)
	v.Take(CompL2, 113)
	v.Take(CompL3, 145)
	v.Take(CompRemap, 160)
	v.AddUpTo(CompSwapXfer, 7)
	v.Take(CompMemQ, 180)
	v.Take(CompNVM, 220)

	a := New(1)
	a.Fold(0, &v, 220)
	st := a.Core(0).Class[ClassNone]
	if st.Requests != 1 || st.Latency != 120 {
		t.Fatalf("fold: got %d requests / %d latency, want 1 / 120", st.Requests, st.Latency)
	}
	var sum uint64
	for c := CompL1; c < NumComponents; c++ {
		sum += st.Comp[c]
	}
	if sum != st.Latency {
		t.Fatalf("components sum to %d, latency is %d", sum, st.Latency)
	}
	if got := a.Core(0).Unattributed; got != 0 {
		t.Fatalf("fully stamped request left %d cycles unattributed", got)
	}
	for c, want := range map[Component]uint64{
		CompTLB: 3, CompL1: 2, CompL2: 8, CompL3: 32,
		CompRemap: 15, CompSwapXfer: 7, CompMemQ: 13, CompNVM: 40,
	} {
		if st.Comp[c] != want {
			t.Errorf("%v: got %d cycles, want %d", c, st.Comp[c], want)
		}
	}
}

// TestWalkRedirect: during a page walk every generic stamp charges to
// CompWalk; TakePTE stays separable by design.
func TestWalkRedirect(t *testing.T) {
	var v Vector
	v.Begin(0)
	v.SetWalk(true)
	v.Take(CompL2, 10)   // walk PTE read hitting L2 -> walk time
	v.Take(CompDRAM, 50) // walk PTE read from DRAM -> walk time
	v.TakePTE(60)        // PTE-cache service stays its own component
	v.SetWalk(false)
	v.Take(CompL1, 62)
	if v.counts[CompWalk] != 50 || v.counts[CompPTECache] != 10 || v.counts[CompL1] != 2 {
		t.Fatalf("walk redirect mis-charged: walk=%d pte=%d l1=%d",
			v.counts[CompWalk], v.counts[CompPTECache], v.counts[CompL1])
	}
	if v.counts[CompL2] != 0 || v.counts[CompDRAM] != 0 {
		t.Fatal("generic components charged during a walk")
	}
}

// TestClassOf pins the ledger-trigger -> class mapping.
func TestClassOf(t *testing.T) {
	if got := ClassOf(0, false); got != ClassNone {
		t.Fatalf("no residency: got %v, want %v", got, ClassNone)
	}
	want := map[obs.Trigger]Class{
		obs.TrigRegular:  ClassRegular,
		obs.TrigPCT:      ClassPCT,
		obs.TrigMMU:      ClassMMU,
		obs.TrigFollower: ClassFollower,
	}
	for tr, cl := range want {
		if got := ClassOf(tr, true); got != cl {
			t.Errorf("trigger %v: got %v, want %v", tr, got, cl)
		}
	}
	if int(NumClasses) != int(obs.NumTriggers)+1 {
		t.Fatalf("NumClasses %d != NumTriggers+1 %d", NumClasses, int(obs.NumTriggers)+1)
	}
}

// TestAuditCatchesMissedStamp: a request retired without its final stamp
// leaves a residual, and the audit reports both the unattributed cycles
// and the broken per-class conservation.
func TestAuditCatchesMissedStamp(t *testing.T) {
	a := New(1)
	var v Vector
	v.Begin(0)
	v.Take(CompL1, 2)
	a.Fold(0, &v, 50) // 48 cycles never stamped

	var ad check.Audit
	a.Audit(&ad)
	if err := ad.Err(); err == nil {
		t.Fatal("audit passed despite 48 unattributed cycles")
	}
	if got := a.Summary().Unattributed; got != 48 {
		t.Fatalf("unattributed: got %d, want 48", got)
	}

	clean := New(1)
	var w Vector
	w.Begin(0)
	w.Take(CompL1, 2)
	w.Take(CompDRAM, 50)
	clean.Fold(0, &w, 50)
	var ok check.Audit
	clean.Audit(&ok)
	if err := ok.Err(); err != nil {
		t.Fatalf("clean fold failed audit: %v", err)
	}
}

// TestSummaryAggregatesCores: the digest merges per-core stacks in core
// order and carries the machinery counters.
func TestSummaryAggregatesCores(t *testing.T) {
	a := New(2)
	var v Vector
	v.Begin(0)
	v.Take(CompDRAM, 10)
	v.SetClass(ClassMMU)
	a.Fold(0, &v, 10)
	v.Begin(100)
	v.Take(CompNVM, 130)
	a.Fold(1, &v, 130)
	a.CorrEval(7)
	a.AddCore(0, 1000)

	s := a.Summary()
	if s.Class[ClassMMU].Requests != 1 || s.Class[ClassMMU].Comp[CompDRAM] != 10 {
		t.Fatalf("mmu class: %+v", s.Class[ClassMMU])
	}
	if s.Class[ClassNone].Comp[CompNVM] != 30 || s.Class[ClassNone].Comp[CompCore] != 1000 {
		t.Fatalf("none class: %+v", s.Class[ClassNone])
	}
	if s.CorrEvals != 1 || s.CorrEvalCycles != 7 {
		t.Fatalf("machinery: %d evals / %d cycles", s.CorrEvals, s.CorrEvalCycles)
	}
	tot := s.Total()
	if tot.Requests != 2 || tot.Latency != 40 {
		t.Fatalf("total: %+v", tot)
	}

	a.Reset()
	if got := a.Summary(); got != (Summary{}) {
		t.Fatalf("reset left state: %+v", got)
	}
}
