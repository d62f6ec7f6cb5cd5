package core

import (
	"strings"
	"testing"

	"pageseer/internal/check"
)

func TestAuditCleanManager(t *testing.T) {
	sim, ctl, ps := testRig(testConfig())
	miss(sim, ctl, 0, nvmPage(ctl, 0))
	sim.Drain(0)
	a := &check.Audit{}
	ps.Audit(a)
	if !a.OK() {
		t.Fatalf("clean manager fails audit: %q", a.Violations())
	}
}

// TestAuditCatchesRemapDesync plants a three-way rotation — page N's data
// in frame 0, frame 0's in N+1, N+1's in N — so N maps to 0 but 0 does not
// map back: the corruption a dropped commit or a half-applied optimized
// slow swap would leave behind.
func TestAuditCatchesRemapDesync(t *testing.T) {
	_, ctl, ps := testRig(testConfig())
	n0, n1 := uint64(nvmPage(ctl, 0)), uint64(nvmPage(ctl, 1))
	ps.Remap().Exchange(n0, 0)
	ps.Remap().Exchange(n0, n1)

	a := &check.Audit{}
	ps.Audit(a)
	if a.OK() {
		t.Fatal("audit missed an asymmetric remap entry")
	}
	joined := strings.Join(a.Violations(), "\n")
	if !strings.Contains(joined, "asymmetric") {
		t.Fatalf("violations never mention the asymmetry: %q", joined)
	}
}

// TestAuditCatchesNonCrossingPair plants a symmetric pair that stays on one
// side of the DRAM/NVM boundary — never legal for a hot/cold exchange.
func TestAuditCatchesNonCrossingPair(t *testing.T) {
	_, ctl, ps := testRig(testConfig())
	ps.Remap().Exchange(uint64(nvmPage(ctl, 0)), uint64(nvmPage(ctl, 1)))

	a := &check.Audit{}
	ps.Audit(a)
	if a.OK() {
		t.Fatal("audit missed an NVM<->NVM remap pair")
	}
	joined := strings.Join(a.Violations(), "\n")
	if !strings.Contains(joined, "cross") {
		t.Fatalf("violations never mention the boundary: %q", joined)
	}
}

// TestVerifyIntegrityCatchesMutation: after real swaps the manager's remap
// table agrees with the oracle; sending one swapped page home in the
// manager's table alone must fail the check.
func TestVerifyIntegrityCatchesMutation(t *testing.T) {
	cfg := testConfig()
	sim, ctl, ps := testRig(cfg)
	for i := 0; i < 3; i++ {
		for j := 0; j < int(cfg.HPTThreshold); j++ {
			miss(sim, ctl, 1, nvmPage(ctl, 3+i))
		}
	}
	sim.Drain(0)
	if ps.SwappedPages() == 0 {
		t.Fatalf("no swaps to corrupt (%s)", ps.DumpState())
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatalf("uncorrupted run fails: %v", err)
	}
	p := uint64(nvmPage(ctl, 3))
	if ps.Remap().Loc(p) == p {
		t.Fatal("the first hot page never left home")
	}
	ps.Remap().Place(p, p)
	if err := ctl.VerifyIntegrity(); err == nil {
		t.Fatal("VerifyIntegrity accepted a translation the oracle contradicts")
	}
}
