package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTraceJSONIsValidChromeTrace checks the emitted file parses as the
// Chrome trace-event object form Perfetto loads, with the phases and
// required keys intact.
func TestTraceJSONIsValidChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.ProcessName(TracePidSwap, "swap-engine")
	tr.Complete("swap", "swap:regular", TracePidSwap, 0, 100, 400, "page", 7)
	tr.Instant("swap", "remap-commit", TracePidSwap, 0, 400, "page", 7)
	tr.FlowStart("hint", "mmu-hint", 1, TracePidCores, 2, 90)
	tr.FlowEnd("hint", "mmu-hint", 1, TracePidSwap, 0, 100)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(file.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range file.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event %v missing required key %q", e, k)
			}
		}
		phases[e["ph"].(string)]++
	}
	for _, ph := range []string{"M", "X", "i", "s", "f"} {
		if phases[ph] != 1 {
			t.Fatalf("phase %q count = %d, want 1 (%v)", ph, phases[ph], phases)
		}
	}
	// The complete event must carry a duration; the flow-finish its binding
	// point; the instant a scope.
	for _, e := range file.TraceEvents {
		switch e["ph"] {
		case "X":
			if e["dur"].(float64) != 300 {
				t.Fatalf("complete event dur = %v, want 300", e["dur"])
			}
		case "f":
			if e["bp"] != "e" {
				t.Fatalf("flow finish missing bp=e: %v", e)
			}
		case "i":
			if e["s"] != "t" {
				t.Fatalf("instant missing scope: %v", e)
			}
		}
	}
}
