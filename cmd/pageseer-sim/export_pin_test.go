package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestExportedFilesPinned pins the bytes of every table pageseer-sim
// exports, as CSV and as JSON, on one quick GemsFDTD PageSeer run with the
// ledger, cycle attribution, pagemap and timeline on: the CPI stack, the
// per-page rows, the 2MB regions and the timeline. -timeline picks one
// encoding by extension and -pagemap-2mb switches the pagemap export to
// regions, so the run goes twice.
func TestExportedFilesPinned(t *testing.T) {
	want := map[string]string{
		"cpi.csv":      "90d236f6559048cd",
		"cpi.json":     "1e268c0cbd25e366",
		"rows.csv":     "737471b2483740b9",
		"rows.json":    "6abc306335e84765",
		"tl.csv":       "3c3991e6fe89cd9c",
		"regions.csv":  "3c0ba3a336542241",
		"regions.json": "304329a994bae0c9",
		"tl.json":      "2df58318a7a02532",
	}
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	for _, files := range [][]string{
		{"-cpi-csv", out("cpi.csv"), "-cpi-json", out("cpi.json"),
			"-pagemap-csv", out("rows.csv"), "-pagemap-json", out("rows.json"), "-timeline", out("tl.csv")},
		{"-pagemap-2mb", "-pagemap-csv", out("regions.csv"), "-pagemap-json", out("regions.json"), "-timeline", out("tl.json")},
	} {
		args := append([]string{"-workload", "GemsFDTD", "-scheme", "pageseer", "-instr", "400000", "-warmup", "250000",
			"-maxcores", "4", "-effectiveness"}, files...)
		var stdout, stderr syncBuffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
		}
	}
	for name, sum := range want {
		b, err := os.ReadFile(out(name))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		if got := hex.EncodeToString(h[:8]); got != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got, sum)
		}
	}
}
