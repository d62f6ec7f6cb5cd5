package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(bounds, map[string]any{"end_to_end": []map[string]any{
		{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
		{"name": "run_mips_geomean", "unit": "MIPS", "better": "higher", "bound": 0.1},
	}}); err != nil {
		t.Fatal(err)
	}
	exact := func(v float64) summary { return summary{Value: v, Median: v, Q1: v, Q3: v, N: 3} }
	file := func(name string, nproc int, wall, mips float64, sha string) string {
		path := filepath.Join(dir, name)
		rf := resultFile{
			Stamp: stamp{Host: host{Nproc: nproc}, Seed: 1, Seconds: 30},
			Workloads: map[string]*workloadReport{"sampled": {
				Repeats: 3, ResultsSHA256: sha,
				EndToEnd: map[string]summary{"wall_s": exact(wall), "run_mips_geomean": exact(mips)},
			}},
		}
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := file("a.json", 2, 10, 40, "x")

	var out strings.Builder
	regressed, err := compareFiles(&out, bounds, a, file("same.json", 2, 10.5, 39, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if regressed || strings.Contains(out.String(), "WARNING") || strings.Contains(out.String(), "differs") {
		t.Errorf("same host, moves within bound, same results: regressed=%v\n%s", regressed, out.String())
	}

	out.Reset()
	regressed, err = compareFiles(&out, bounds, a, file("slow.json", 1, 12, 30, "y"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WARNING: hosts differ", "results_sha256 differs", "REGRESSION"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if !regressed {
		t.Error("a 20% slowdown against a 10% bound did not count as a regression")
	}
}
