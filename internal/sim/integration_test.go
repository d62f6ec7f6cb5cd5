package sim

import "testing"

// These integration tests exercise whole-system flows end to end: page
// walks reaching the MMU Driver and cross-scheme invariants that only hold when every component cooperates.

func TestWalkPathReachesMMUDriver(t *testing.T) {
	cfg := tinyConfig(SchemePageSeer, "lbm")
	cfg.InstrPerCore = 300_000
	cfg.Warmup = 0
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MMU.Walks == 0 {
		t.Fatal("no page walks in a TLB-pressured run")
	}
	if res.MMU.Hints != res.MMU.Walks {
		t.Fatalf("hints (%d) != walks (%d): the MMU must signal on every walk", res.MMU.Hints, res.MMU.Walks)
	}
	if res.Ctl.PTEReachedHMC > 0 && res.MMUDriverHitRate() < 0.5 {
		t.Fatalf("MMU driver hit rate %.2f too low: hint fetches should cover intercepted PTE requests",
			res.MMUDriverHitRate())
	}
	// The walk reads per walk must be between 1 (full PWC coverage) and 4.
	perWalk := float64(res.MMU.WalkReads) / float64(res.MMU.Walks)
	if perWalk < 1 || perWalk > 4 {
		t.Fatalf("walk reads per walk = %.2f, outside [1,4]", perWalk)
	}
}

func TestSchemesShareIdenticalWorkloadTrace(t *testing.T) {
	// The comparison is only fair if every scheme sees the same trace:
	// instruction counts and memory-op counts must match across schemes.
	var instr [2]uint64
	for i, sch := range []Scheme{SchemeStatic, SchemePageSeer} {
		sys, err := Build(tinyConfig(sch, "GemsFDTD"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		instr[i] = res.Instructions
	}
	if instr[0] != instr[1] {
		t.Fatalf("schemes retired different instruction counts: %d vs %d", instr[0], instr[1])
	}
}

func TestNegativeAccessesBounded(t *testing.T) {
	// Sanity on Figure 8's shape: PageSeer's negative accesses stay a small
	// fraction (the paper reports ~1%; allow slack for the scaled system).
	sys, err := Build(tinyConfig(SchemePageSeer, "miniFE"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, neg, _ := res.AccessEffectiveness()
	if neg > 0.25 {
		t.Fatalf("negative accesses %.1f%% out of control", neg*100)
	}
}

func TestPrefetchAccuracyRange(t *testing.T) {
	sys, err := Build(tinyConfig(SchemePageSeer, "miniFE"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchAccuracy < 0 || res.PrefetchAccuracy > 1 {
		t.Fatalf("accuracy %f out of range", res.PrefetchAccuracy)
	}
}
