package figures

import (
	"strings"
	"testing"

	"pageseer/internal/obs"
	"pageseer/internal/obs/pagemap"
)

// churnRows is a hand-built fixture populating every Summary field class —
// the source split, trigger mix, float-carrying reuse digest, and the
// leaderboard — so the CSV/JSON round trip exercises all encoders.
func churnRows() []ChurnRow {
	var s pagemap.Summary
	s.UniquePages = 512
	s.DemandBySource[obs.LatDRAM] = 40000
	s.DemandBySource[obs.LatNVM] = 9000
	s.DemandBySource[obs.LatBuf] = 700
	s.DemandBySource[obs.LatPTE] = 300
	s.Reads = 41000
	s.Writes = 9000
	s.FFReads = 120
	s.FFWrites = 30
	s.NVMWearWrites = 13500
	s.SwapIns = 130
	s.SwapOuts = 128
	s.InsByTrigger[obs.TrigRegular] = 60
	s.InsByTrigger[obs.TrigPCT] = 40
	s.InsByTrigger[obs.TrigMMU] = 25
	s.InsByTrigger[obs.TrigFollower] = 5
	s.UnusedIns = 3
	s.WastedSwapPages = 2
	s.RoundTrips = 11
	s.FlapEvents = 4
	s.FlappingPages = 3
	s.HotSet50 = 140
	s.HotSet90 = 300
	s.HotSet99 = 420
	s.ResidentDRAM = 350
	s.ReuseDist = obs.Dist{Count: 50000, Mean: 812.5, P50: 400, P90: 3000, P99: 9000, Max: 120000}
	s.ReuseDistLog2[4] = 1000
	s.ReuseDistLog2[10] = 9000
	s.Top[0] = pagemap.PageDigest{Page: 0x417000, Accesses: 84, SwapIns: 2, SwapOuts: 2, FlapEvents: 1, WearWrites: 64, Resident: pagemap.ResDRAM}
	s.TopN = 1
	return []ChurnRow{
		{Workload: "GemsFDTD", Scheme: "pageseer", Summary: s},
		{Workload: "lbm", Scheme: "pom", Summary: pagemap.Summary{}},
	}
}

// TestChurnCSVJSONRoundTrip pins the acceptance property: exporting rows
// straight to CSV and exporting the same rows via the JSON file and back
// must produce byte-identical CSV.
func TestChurnCSVJSONRoundTrip(t *testing.T) {
	rows := churnRows()
	direct := csvAfterJSONRoundTrip(t, ChurnColumns, rows)
	lines := strings.Split(direct, "\n")
	if len(lines) < 3 {
		t.Fatalf("CSV too short: %q", direct)
	}
	if !strings.HasPrefix(lines[0], "workload,scheme,unique_pages,demand_dram,demand_nvm") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "GemsFDTD,pageseer,512,40000,9000,700,300,41000,9000,") {
		t.Fatalf("unexpected CSV row: %s", lines[1])
	}
}

// TestChurnTableRequiresPageMap: aggregating a campaign that ran without the
// pagemap is an error, not a silently all-zero table.
func TestChurnTableRequiresPageMap(t *testing.T) {
	r := NewRunner(tinyOpts())
	if _, err := ChurnTable(r); err != ErrNoPageMap {
		t.Fatalf("err = %v, want ErrNoPageMap", err)
	}
}

// TestChurnTableFromCampaign runs a tiny pagemap-on campaign and checks the
// table carries every swapping scheme with a populated digest, and that the
// render shows the columns the figure exists for.
func TestChurnTableFromCampaign(t *testing.T) {
	opts := tinyOpts()
	opts.Workloads = []string{"lbm"}
	opts.Config.Obs.PageMap = true
	r := NewRunner(opts)
	rows, err := ChurnTable(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (lbm x pom/mempod/pageseer)", len(rows))
	}
	for _, row := range rows {
		s := row.Summary
		if s.UniquePages == 0 || s.DemandTotal() == 0 {
			t.Errorf("%s/%s: empty pagemap digest", row.Workload, row.Scheme)
		}
		if s.SwapIns == 0 {
			t.Errorf("%s/%s: swapping scheme recorded no swap-ins", row.Workload, row.Scheme)
		}
	}
	out := RenderChurn(rows)
	for _, want := range []string{"pageseer", "pom", "mempod", "lbm", "pages", "flap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
