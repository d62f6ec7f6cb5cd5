package sim

import (
	"errors"
	"reflect"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/obs/attrib"
)

// cpiConfig is the CPI-stack probe configuration: GemsFDTD at the quick
// campaign scale, the same regime the effectiveness smoke uses — its phase
// shifts cycle pages through DRAM via all three PageSeer trigger paths, so
// the trigger-class split of the CPI stack is exercised end to end.
func cpiConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Workload = "GemsFDTD"
	cfg.InstrPerCore = 400_000
	cfg.Warmup = 250_000
	cfg.MaxCores = 4
	cfg.Obs.CPI = true
	cfg.Audit = true // registers the blame-conservation audit
	return cfg
}

// componentSum adds the per-request blame components (CompCore is the
// collect-time compute fold, not request latency, and is excluded — the same
// rule the conservation audit applies).
func componentSum(st attrib.Stack) uint64 {
	var sum uint64
	for c := attrib.CompL1; c < attrib.NumComponents; c++ {
		sum += st.Comp[c]
	}
	return sum
}

// TestCPISmoke is the tier-1 gate for the cycle-attribution layer: a
// PageSeer run with attribution on must populate every trigger class the
// ledger distinguishes, charge cycles to most of the blame taxonomy, and —
// with attribution off — produce byte-identical Results except for the
// CPIStack field itself.
func TestCPISmoke(t *testing.T) {
	sys, err := Build(cpiConfig(SchemePageSeer))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := res.CPIStack
	if cs.Total().Requests == 0 {
		t.Fatal("attribution-on run retired no attributed requests")
	}
	for _, cl := range []attrib.Class{attrib.ClassNone, attrib.ClassRegular, attrib.ClassPCT, attrib.ClassMMU} {
		if cs.Class[cl].Requests == 0 {
			t.Errorf("trigger class %v saw no requests; the stack cannot separate the paper's mechanisms", cl)
		}
	}
	var nonzero int
	tot := cs.Total()
	for c := attrib.Component(0); c < attrib.NumComponents; c++ {
		if tot.Comp[c] > 0 {
			nonzero++
		}
	}
	if nonzero < 8 {
		t.Errorf("only %d of %d blame components nonzero, want >= 8 (stack too coarse to explain anything): %+v",
			nonzero, attrib.NumComponents, tot.Comp)
	}
	if cs.Unattributed != 0 {
		t.Errorf("%d cycles retired unattributed", cs.Unattributed)
	}
	if cs.CorrEvals == 0 {
		t.Error("PageSeer run evaluated no correlations through the attribution counter")
	}

	// Off-run: attribution must not perturb the simulation.
	off := cpiConfig(SchemePageSeer)
	off.Obs.CPI = false
	osys, err := Build(off)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := osys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ores.CPIStack != (attrib.Summary{}) {
		t.Fatal("attribution-off run filled CPIStack")
	}
	res.CPIStack = attrib.Summary{}
	if !reflect.DeepEqual(res, ores) {
		t.Fatalf("attribution perturbed the simulation:\non:  %+v\noff: %+v", res, ores)
	}
}

// TestCPIConservation pins the accounting identity per scheme and per
// trigger class: the blame components of every retired request sum exactly
// to its measured end-to-end latency — no cycles invented, none dropped.
// The end-of-run audit enforces the same law (Config.Audit is set), so this
// test both re-derives it from Results and proves the audit ran clean.
func TestCPIConservation(t *testing.T) {
	for _, sch := range []Scheme{SchemeStatic, SchemePageSeer, SchemePageSeerNoCorr, SchemePoM, SchemeMemPod} {
		cfg := tinyConfig(sch, "lbm")
		cfg.Obs.CPI = true
		cfg.Audit = true
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		cs := res.CPIStack
		if cs.Unattributed != 0 {
			t.Errorf("%s: %d cycles unattributed", sch, cs.Unattributed)
		}
		if cs.Total().Requests == 0 {
			t.Errorf("%s: no attributed requests", sch)
			continue
		}
		for cl := attrib.Class(0); cl < attrib.NumClasses; cl++ {
			st := cs.Class[cl]
			if st.Requests == 0 {
				continue
			}
			if got := componentSum(st); got != st.Latency {
				t.Errorf("%s class %v: components sum to %d cycles, latency is %d over %d requests",
					sch, cl, got, st.Latency, st.Requests)
			}
		}
	}
}

// TestCPIMutationFailsAudit proves the conservation audit has teeth: folding
// a vector that missed its final stamp (a mis-stamped stage) must fail
// System.CheckInvariants with check.ErrAuditFailed.
func TestCPIMutationFailsAudit(t *testing.T) {
	cfg := tinyConfig(SchemePageSeer, "lbm")
	cfg.Obs.CPI = true
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
	// Simulate a stage that forgot its final stamp: 98 of the request's 100
	// cycles retire unattributed.
	var v attrib.Vector
	v.Begin(0)
	v.Take(attrib.CompL1, 2)
	sys.att.Fold(0, &v, 100)
	err = sys.CheckInvariants()
	if err == nil {
		t.Fatal("audit passed despite a mis-stamped request")
	}
	if !errors.Is(err, check.ErrAuditFailed) {
		t.Fatalf("audit error does not wrap ErrAuditFailed: %v", err)
	}
}
