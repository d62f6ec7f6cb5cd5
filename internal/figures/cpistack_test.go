package figures

import (
	"strings"
	"testing"

	"pageseer/internal/obs/attrib"
)

// cpiRows is a hand-built fixture spreading cycles across classes and
// components so the CSV/JSON round trip exercises the per-class summation.
func cpiRows() []CPIStackRow {
	var s attrib.Summary
	s.Class[attrib.ClassNone].Requests = 1000
	s.Class[attrib.ClassNone].Latency = 90000
	s.Class[attrib.ClassNone].Comp[attrib.CompCore] = 400000
	s.Class[attrib.ClassNone].Comp[attrib.CompL1] = 30000
	s.Class[attrib.ClassNone].Comp[attrib.CompNVM] = 60000
	s.Class[attrib.ClassPCT].Requests = 50
	s.Class[attrib.ClassPCT].Latency = 7000
	s.Class[attrib.ClassPCT].Comp[attrib.CompDRAM] = 5000
	s.Class[attrib.ClassPCT].Comp[attrib.CompMemQ] = 2000
	s.CorrEvalCycles = 1234
	s.CorrEvals = 17
	return []CPIStackRow{
		{Workload: "GemsFDTD", Scheme: "pageseer", Instructions: 400000, Stack: s},
		{Workload: "lbm", Scheme: "static", Instructions: 400000, Stack: attrib.Summary{}},
	}
}

// TestCPIStackCSVJSONRoundTrip pins the acceptance property: exporting rows
// straight to CSV and exporting the same rows via the JSON file and back
// must produce byte-identical CSV.
func TestCPIStackCSVJSONRoundTrip(t *testing.T) {
	rows := cpiRows()
	direct := csvAfterJSONRoundTrip(t, CPIStackColumns, rows)
	lines := strings.Split(direct, "\n")
	if len(lines) < 3 {
		t.Fatalf("CSV too short: %q", direct)
	}
	if !strings.HasPrefix(lines[0], "workload,scheme,instructions,requests,latency,cycles_core,cycles_l1") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
	// Row 1 sums the two classes: 1050 requests, 97000 latency cycles.
	if !strings.HasPrefix(lines[1], "GemsFDTD,pageseer,400000,1050,97000,400000,30000,") {
		t.Fatalf("unexpected CSV row: %s", lines[1])
	}
}

// TestCPIStackTableRequiresCPI: aggregating an attribution-less campaign is
// an error, not a silently all-zero table.
func TestCPIStackTableRequiresCPI(t *testing.T) {
	r := NewRunner(tinyOpts())
	if _, err := CPIStackTable(r); err != ErrNoCPI {
		t.Fatalf("err = %v, want ErrNoCPI", err)
	}
}

// TestCPIStackTableFromCampaign runs a tiny attribution-on campaign and
// checks the table carries the static baseline, conserves cycles, and shows
// the property the figure exists for: PageSeer's NVM-stall share below the
// static baseline's.
func TestCPIStackTableFromCampaign(t *testing.T) {
	opts := tinyOpts()
	opts.Workloads = []string{"lbm"}
	opts.Config.Obs.CPI = true
	r := NewRunner(opts)
	rows, err := CPIStackTable(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (lbm x static/pom/mempod/pageseer)", len(rows))
	}
	byScheme := map[string]CPIStackRow{}
	for _, row := range rows {
		byScheme[row.Scheme] = row
		if row.Stack.Total().Requests == 0 {
			t.Errorf("%s/%s: no attributed requests", row.Workload, row.Scheme)
		}
		if row.Stack.Unattributed != 0 {
			t.Errorf("%s/%s: %d cycles unattributed", row.Workload, row.Scheme, row.Stack.Unattributed)
		}
	}
	st, ps := byScheme["static"], byScheme["pageseer"]
	if st.NVMShare() == 0 {
		t.Fatal("static baseline shows no NVM stall share on an NVM-bound workload")
	}
	if ps.NVMShare() >= st.NVMShare() {
		t.Errorf("PageSeer NVM share %.3f not below static %.3f — the stack cannot show the win",
			ps.NVMShare(), st.NVMShare())
	}
	out := RenderCPIStack(rows)
	for _, want := range []string{"static", "pageseer", "nvm%", "lbm"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
