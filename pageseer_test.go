package pageseer

import (
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "barnes"
	cfg.MaxCores = 2
	cfg.InstrPerCore = 150_000
	cfg.Warmup = 75_000
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC = %f", res.IPC)
	}
}

func TestFacadeWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 26 {
		t.Fatalf("Workloads() returned %d names, want 26", len(ws))
	}
	if Suite("lbm") != "SPEC" || Suite("mix1") != "Mixes" {
		t.Fatal("Suite misclassifies")
	}
}

func TestFacadePageSeerConfigOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "barnes"
	cfg.MaxCores = 2
	cfg.InstrPerCore = 100_000
	cfg.Warmup = 50_000
	pcfg := DefaultPageSeerConfig().Scale(cfg.Scale)
	pcfg.NoCorr = true
	sys, err := BuildWithPageSeerConfig(cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.PageSeer == nil || sys.PageSeer.Name() != "PageSeer-NoCorr" {
		t.Fatal("PageSeer config override not applied")
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}
