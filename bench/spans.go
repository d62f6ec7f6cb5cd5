package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanLog keeps the traced repeats' spans in memory, in Chrome Trace Event
// Format, until the run writes them out. A nil log records nothing, which is
// how untraced repeats run.
type spanLog struct {
	start  time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the log started
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{start: time.Now()} }

// add records one complete span. Spans of one simulation share its run ID.
func (l *spanLog) add(name, cat string, from, to time.Time, args map[string]any) {
	if l == nil {
		return
	}
	l.events = append(l.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts:  float64(from.Sub(l.start).Nanoseconds()) / 1e3,
		Dur: float64(to.Sub(from).Nanoseconds()) / 1e3,
		Pid: 1, Tid: 1, Args: args,
	})
}

// write saves the log as a trace loadable in Perfetto or chrome://tracing.
func (l *spanLog) write(path string) error {
	return writeJSON(path, map[string]any{"traceEvents": l.events, "displayTimeUnit": "ms"})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
