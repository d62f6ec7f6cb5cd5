package figures

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pageseer/internal/obs"
	"pageseer/internal/sim"
)

// csvAfterJSONRoundTrip returns rows' CSV, failing t unless rows written to
// JSON and decoded back write byte-identical CSV (the canonical-cell
// property every exported table keeps).
func csvAfterJSONRoundTrip[T any](t *testing.T, cols obs.Columns[T], rows []T) string {
	t.Helper()
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
	return direct.String()
}

// tinyOpts keeps figure tests fast: two small workloads, small budgets.
func tinyOpts() Options {
	o := DefaultOptions()
	o.Workloads = []string{"lbm", "barnes"}
	o.Config.InstrPerCore = 120_000
	o.Config.Warmup = 60_000
	o.Config.MaxCores = 2
	return o
}

func TestRunnerCachesRuns(t *testing.T) {
	r := NewRunner(tinyOpts())
	a, err := r.Run("lbm", sim.SchemePageSeer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("lbm", sim.SchemePageSeer)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached run differs from original")
	}
	if len(r.cache) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(r.cache))
	}
}

// TestTablesRender pins the three configuration tables byte for byte, so a
// moved or renamed model parameter cannot change what they print.
func TestTablesRender(t *testing.T) {
	for _, tc := range []struct{ name, got, want string }{
		{"Table1", Table1(128), table1Golden},
		{"Table2", Table2(128), table2Golden},
		{"Table3", Table3(), table3Golden},
	} {
		if tc.got != tc.want {
			t.Errorf("%s changed:\n%s\nwant:\n%s", tc.name, tc.got, tc.want)
		}
	}
}

const table1Golden = `Table I: system configuration (scale 1/128)
  Cores            4+ out-of-order (workload-defined), 2GHz, 64B lines
  L1/L2/L3         32KB 8-way 2cyc | 256KB 8-way 8cyc | 8MB 16-way 32cyc shared
  L1/L2 TLB        64e 4-way 1cyc | 1024e 12-way 10cyc
  DRAM             512MB, 4ch x 1rank x 8bank, tCAS-tRCD-tRAS 11-11-28, tRP 11, tWR 12
  NVM              4GB, 2ch x 2rank x 8bank, tCAS-tRCD-tRAS 11-58-80, tRP 11, tWR 180
  Bus              1GHz DDR, 64-bit per channel (timings in memory cycles)
`

const table2Golden = `Table II: PageSeer parameters (scale 1/128)
  Swap size                    4KB (one page)
  PCTc prefetch swap threshold 14
  HPT swap threshold           6
  HPT decay interval           100000 CPU cycles
  PRTc                         851 entries, 4-way, 2-cycle hit
  PCTc                         283 entries, 4-way, 2-cycle hit
  HPT (each)                   1024 entries, fully associative
  Filter                       128 entries, fully associative
  MMU Driver                   16 PTE lines, 64B each
  PRT in DRAM                  4KB   PCT in DRAM: 56KB
  Area/energy per access (from the paper's CACTI analysis):
    PRTc    A=54.9 e-3mm2  L=11.4mW  R/W=14.8/14.4 pJ
    PCTc    A=36.8 e-3mm2  L=11.4mW  R/W=14.7/16.7 pJ
    HPT     A=23.7 e-3mm2  L=9.1mW  R/W=1.8/2.6 pJ
    Filter  A=7.7 e-3mm2  L=2.3mW  R/W=1.4/2.7 pJ
`

const table3Golden = `Table III: workloads (single-instance footprint)
  lbm          x4   422MB    milc         x4   380MB
  bwaves       x4   385MB    GemsFDTD     x4   502MB
  mcf          x8   290MB    libquantum   x6   267MB
  omnetpp      x8   164MB    leslie3d     x12   62MB
  fft          x4   768MB    luCon        x4   520MB
  luNCon       x4   520MB    oceanCon     x4   887MB
  barnes       x8   250MB    radix        x4   648MB
  stream       x4   457MB    miniFE       x4   480MB
  LULESH       x4   914MB    AMGmk        x4   350MB
  SNAP         x4   441MB    MILCmk       x4   480MB
  mix1: lbm-LULESH-SNAP-leslie3d
  mix2: AMGmk-luCon-radix-barnes
  mix3: miniFE-oceanCon-barnes-AMGmk
  mix4: LULESH-milc-miniFE-stream
  mix5: luCon-radix-oceanCon-barnes
  mix6: libquantum-lbm-mcf-bwaves
`

func TestAllFiguresBuildAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure build in -short mode")
	}
	r := NewRunner(tinyOpts())

	f7, err := Figure7(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) == 0 || RenderFigure7(f7) == "" {
		t.Fatal("Figure 7 empty")
	}
	for _, row := range f7 {
		if s := row.DRAM + row.NVM + row.Buffer; s < 0.99 || s > 1.01 {
			t.Fatalf("Figure 7 row fractions sum to %f: %+v", s, row)
		}
	}

	f8, err := Figure8(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != len(f7) || RenderFigure8(f8) == "" {
		t.Fatal("Figure 8 mismatch")
	}

	f9, err := Figure9(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9) != 2 || RenderFigure9(f9) == "" {
		t.Fatal("Figure 9 empty")
	}
	for _, row := range f9 {
		if row.Accuracy < 0 || row.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", row)
		}
	}

	f10, err := Figure10(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f10 {
		if row.TotalSwaps > 0 {
			if s := row.MMUFrac + row.PrefetchFrac + row.RegularFrac; s < 0.99 || s > 1.01 {
				t.Fatalf("Figure 10 fractions sum to %f: %+v", s, row)
			}
		}
	}
	if RenderFigure10(f10) == "" {
		t.Fatal("Figure 10 render empty")
	}

	f11, err := Figure11(r)
	if err != nil {
		t.Fatal(err)
	}
	if RenderFigure11(f11) == "" {
		t.Fatal("Figure 11 render empty")
	}

	f12, err := Figure12(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f12 {
		if row.PTEMissRate < 0 || row.PTEMissRate > 1 || row.MMUDriverHitRate < 0 || row.MMUDriverHitRate > 1 {
			t.Fatalf("Figure 12 rates out of range: %+v", row)
		}
	}
	if RenderFigure12(f12) == "" {
		t.Fatal("Figure 12 render empty")
	}

	f13, err := Figure13(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13) != 2 || RenderFigure13(f13) == "" {
		t.Fatal("Figure 13 empty")
	}

	f14, err := Figure14(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Rows) != 2 || f14.GeoIPCPageSeer <= 0 {
		t.Fatalf("Figure 14 summary broken: %+v", f14)
	}
	if RenderFigure14(f14) == "" {
		t.Fatal("Figure 14 render empty")
	}

	abl, err := Ablation(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 2 || RenderAblation(abl) == "" {
		t.Fatal("ablation empty")
	}
}

func TestBarRendering(t *testing.T) {
	if b := bar(0.5, 10); strings.Count(b, "#") != 5 || len(b) != 10 {
		t.Fatalf("bar(0.5,10) = %q", b)
	}
	if b := bar(-1, 4); strings.Count(b, "#") != 0 {
		t.Fatalf("bar(-1) = %q", b)
	}
	if b := bar(2, 4); strings.Count(b, "#") != 4 {
		t.Fatalf("bar(2) = %q", b)
	}
}

func TestQuickOptionsAreSubset(t *testing.T) {
	q := QuickOptions()
	if len(q.Workloads) >= 26 || q.Config.InstrPerCore >= DefaultOptions().Config.InstrPerCore {
		t.Fatalf("quick options not reduced: %+v", q)
	}
}

// TestNoBWKeyReachesNoCorr: the bandwidth-heuristic switch of a run key
// applies to PageSeer-NoCorr as well as PageSeer — the resolved config
// carries it, and the run is labelled apart from the plain NoCorr run.
func TestNoBWKeyReachesNoCorr(t *testing.T) {
	var got []sim.Config
	simulateHook = func(cfg sim.Config) { got = append(got, cfg) }
	defer func() { simulateHook = nil }()

	o := tinyOpts()
	o.Parallelism = 1 // keep the hook race-free
	r := NewRunner(o)
	k := Key{Workload: "lbm", Scheme: sim.SchemePageSeerNoCorr, DisableBW: true}
	if _, errs := r.RunKeys([]Key{k}, nil); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if len(got) != 1 || got[0].Scheme != sim.SchemePageSeerNoCorr || !got[0].DisableBWOpt {
		t.Fatalf("resolved configs = %+v, want one NoCorr run with DisableBWOpt", got)
	}
	if ks := r.begun(); len(ks) != 1 || ks[0].Label() != "pageseer-nocorr-nobw" {
		t.Fatalf("begun keys = %+v, want one pageseer-nocorr-nobw run", ks)
	}
}
