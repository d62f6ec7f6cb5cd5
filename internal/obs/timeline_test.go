package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTimelineDeltasAndTotals(t *testing.T) {
	cur := TimelineCounters{}
	tl := NewTimeline(100, func() TimelineCounters { return cur })

	tl.Start()
	cur = TimelineCounters{Cycle: 100, Instructions: 250, SwapsCompleted: 2,
		SwapsInFlight: 1, ServedDRAM: 80, ServedNVM: 15, ServedBuf: 5, DRAMQueue: 3, NVMQueue: 7}
	tl.Tick()
	cur = TimelineCounters{Cycle: 200, Instructions: 450, SwapsCompleted: 5,
		SwapsInFlight: 0, ServedDRAM: 160, ServedNVM: 35, ServedBuf: 5, DRAMQueue: 0, NVMQueue: 2}
	tl.Tick()
	// Tail progress after the last boundary: Finish must capture it.
	cur.Cycle = 230
	cur.SwapsCompleted = 6
	tl.Finish()
	// A second Finish with no progress must not add a sample.
	tl.Finish()

	s := tl.Samples()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3", len(s))
	}
	if s[0].Instructions != 250 || s[0].Swaps != 2 || s[0].IPC != 2.5 {
		t.Fatalf("sample 0 wrong: %+v", s[0])
	}
	if s[1].Instructions != 200 || s[1].Swaps != 3 || s[1].ServedDRAM != 80 {
		t.Fatalf("sample 1 wrong: %+v", s[1])
	}
	if s[2].Swaps != 1 || s[2].Cycle != 230 {
		t.Fatalf("tail sample wrong: %+v", s[2])
	}
	if tl.SwapsTotal() != 6 {
		t.Fatalf("SwapsTotal = %d, want 6 (epoch total)", tl.SwapsTotal())
	}
}

func TestTimelineCSVAndJSON(t *testing.T) {
	cur := TimelineCounters{}
	tl := NewTimeline(10, func() TimelineCounters { return cur })
	tl.Start()
	cur = TimelineCounters{Cycle: 10, Instructions: 20, SwapsCompleted: 1}
	tl.Tick()

	var csv bytes.Buffer
	if err := TimelineColumns.WriteCSV(&csv, tl.Samples()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "cycle,instructions,ipc,swaps") {
		t.Fatalf("bad CSV:\n%s", csv.String())
	}
	if !strings.HasPrefix(lines[1], "10,20,2.000000,1,") {
		t.Fatalf("bad CSV row: %s", lines[1])
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, tl.Samples()); err != nil {
		t.Fatal(err)
	}
	var back []TimelineSample
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("timeline JSON does not parse: %v", err)
	}
	if len(back) != 1 || back[0].Instructions != 20 {
		t.Fatalf("JSON round-trip wrong: %+v", back)
	}
}
