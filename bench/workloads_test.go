package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"pageseer/internal/sim"
)

func TestSampleErrorsJoin(t *testing.T) {
	s := func(profile string, scheme sim.Scheme, ipc, swaps float64) sim.Results {
		return sim.Results{Workload: profile, Scheme: scheme, IPC: ipc, SwapsPerKI: swaps}
	}
	detailed := map[runKey]sim.Results{
		{"mcf", sim.SchemePoM}:      s("mcf", sim.SchemePoM, 2, 1),
		{"mcf", sim.SchemePageSeer}: s("mcf", sim.SchemePageSeer, 1, 3),
	}
	sampled := []sim.Results{s("mcf", sim.SchemePoM, 3, 2), s("mcf", sim.SchemePageSeer, 0.5, 3)}
	ipcErr, swapErr, err := sampleErrors(sampled, detailed)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * (0.5 + 0.5) / 2; math.Abs(ipcErr-want) > 1e-9 {
		t.Errorf("ipc error %v%%, want %v%%", ipcErr, want)
	}
	if want := 100 * 1.0 / 4; math.Abs(swapErr-want) > 1e-9 {
		t.Errorf("swap error %v%%, want %v%%", swapErr, want)
	}

	sampled = append(sampled, s("radix", sim.SchemePoM, 1, 1))
	if _, _, err := sampleErrors(sampled, detailed); err == nil || !strings.Contains(err.Error(), "radix/pom") {
		t.Errorf("missing reference: err = %v, want an error naming radix/pom", err)
	}
}

func TestFlushOrderDrift(t *testing.T) {
	sampled, detailed := sim.DefaultConfig(), sim.DefaultConfig()
	sampled.Sample, sampled.Scheme, detailed.Scheme = sampleWindows, sim.SchemePageSeer, sim.SchemePageSeer
	pom := sampled
	pom.Scheme = sim.SchemePoM
	ref := sim.Results{IPC: 0.5, SwapsPerKI: 1.30725}
	swaps, ipc := ref, ref
	swaps.SwapsPerKI = 1.307375
	ipc.IPC, ipc.SwapsPerKI = 0.6, 1.307375
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		got  sim.Results
		want bool
	}{
		{"sampled PageSeer, swap rate alone", sampled, swaps, true},
		{"sampled PageSeer, IPC too", sampled, ipc, false},
		{"detailed PageSeer", detailed, swaps, false},
		{"sampled PoM", pom, swaps, false},
	} {
		if got := flushOrderDrift(tc.cfg, tc.got, ref); got != tc.want {
			t.Errorf("%s: flushOrderDrift = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestWorkloadConfigs(t *testing.T) {
	for _, w := range workloads {
		cfgs := w.configs(7)
		if len(cfgs) != len(w.schemes)*len(profiles) {
			t.Fatalf("%s: %d configs, want %d", w.name, len(cfgs), len(w.schemes)*len(profiles))
		}
		for _, cfg := range cfgs {
			if cfg.Seed != 7 || cfg.Scale != 128 || cfg.Audit || cfg.Obs != (sim.ObsOptions{}) {
				t.Errorf("%s %s/%s: seed %d scale %d audit %v obs %+v", w.name, cfg.Workload, cfg.Scheme, cfg.Seed, cfg.Scale, cfg.Audit, cfg.Obs)
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			if (cfg.Sample > 0) != w.sampled {
				t.Errorf("%s: sampling %d", w.name, cfg.Sample)
			}
		}
	}
}

// TestSeedReachesGenerators runs a workload's first config, shrunk to well
// under a second: the same seed repeats exactly and another seed differs.
func TestSeedReachesGenerators(t *testing.T) {
	run := func(seed uint64) sim.Results {
		cfg := workloads[0].configs(seed)[0]
		cfg.InstrPerCore, cfg.Warmup, cfg.MaxCores = 50_000, 20_000, 2
		sys, err := sim.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 twice: Results differ")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2: Results identical; the seed does not reach the generators")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metrics and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if w := want[i]; got[i] != (entry{w.name, w.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer())
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, want %q", i, bj.Workloads[i].Name, w.name)
		}
	}

	keys := map[string]bool{}
	for k := range (&counts{}).metrics() {
		keys[k] = true
	}
	for _, d := range countDefs {
		delete(keys, d.name)
	}
	for k := range keys {
		t.Errorf("counts.metrics reports %q, which no metric definition names", k)
	}
}
