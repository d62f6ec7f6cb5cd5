package figures

import (
	"strings"
	"testing"

	"pageseer/internal/obs"
	"pageseer/internal/obs/ledger"
)

// effRows is a hand-built fixture with awkward float values (thirds do not
// render exactly) so the CSV/JSON round-trip test exercises real float
// formatting, not just zeros.
func effRows() []EffectivenessRow {
	var s ledger.Summary
	s.Started = [obs.NumTriggers]uint64{14, 68, 9, 30}
	s.Useful = [obs.NumTriggers]uint64{10, 41, 7, 22}
	s.Unused = [obs.NumTriggers]uint64{3, 20, 1, 5}
	s.Open = [obs.NumTriggers]uint64{1, 7, 1, 3}
	s.Late = 4
	s.Accuracy = 80.0 / 121.0
	s.Coverage = 1.0 / 3.0
	s.DemandTotal = 90000
	s.DemandCovered = 30000
	s.WastedDRAMBytes = 29 << 12
	s.WastedNVMBytes = 29 << 12
	s.LeadTime = obs.Dist{Count: 77, Mean: 1234.56789, P50: 900, P90: 4000, P99: 9000, Max: 12345}
	s.LeadTimeLog2[10] = 40
	s.LeadTimeLog2[12] = 37
	return []EffectivenessRow{
		{Workload: "GemsFDTD", Scheme: "pageseer", Summary: s},
		{Workload: "lbm", Scheme: "pom", Summary: ledger.Summary{}},
	}
}

// TestEffectivenessCSVJSONRoundTrip pins the acceptance property: exporting
// rows straight to CSV and exporting the same rows via the JSON file and
// back must produce byte-identical CSV.
func TestEffectivenessCSVJSONRoundTrip(t *testing.T) {
	rows := effRows()
	direct := csvAfterJSONRoundTrip(t, EffectivenessColumns, rows)
	// The header and one data row sanity-check the column layout.
	lines := strings.Split(direct, "\n")
	if len(lines) < 3 {
		t.Fatalf("CSV too short: %q", direct)
	}
	if !strings.HasPrefix(lines[0], "workload,scheme,started_regular") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "GemsFDTD,pageseer,14,68,9,30,") {
		t.Fatalf("unexpected CSV row: %s", lines[1])
	}
}

// TestEffectivenessTableRequiresLedger: aggregating a ledger-less campaign
// is an error, not a silently all-zero table.
func TestEffectivenessTableRequiresLedger(t *testing.T) {
	r := NewRunner(tinyOpts())
	if _, err := EffectivenessTable(r); err != ErrNoLedger {
		t.Fatalf("err = %v, want ErrNoLedger", err)
	}
}

// TestEffectivenessTableFromCampaign runs a tiny ledger-on campaign and
// checks the aggregated rows are populated and render.
func TestEffectivenessTableFromCampaign(t *testing.T) {
	opts := tinyOpts()
	opts.Workloads = []string{"lbm"}
	opts.Config.Obs.Ledger = true
	r := NewRunner(opts)
	rows, err := EffectivenessTable(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (lbm x pom/mempod/pageseer)", len(rows))
	}
	var swapping int
	for _, row := range rows {
		if row.Summary.TotalStarted() > 0 {
			swapping++
		}
		if a := row.Summary.Accuracy; a < 0 || a > 1 {
			t.Errorf("%s/%s accuracy %v outside [0,1]", row.Workload, row.Scheme, a)
		}
	}
	if swapping == 0 {
		t.Fatal("no scheme recorded any ledger-tracked swaps")
	}
	out := RenderEffectiveness(rows)
	if !strings.Contains(out, "pageseer") || !strings.Contains(out, "lbm") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}
