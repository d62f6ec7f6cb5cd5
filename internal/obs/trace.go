package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// Trace-track process ids. Chrome-trace groups events into processes and
// threads; the simulator maps components to fixed pids so Perfetto renders
// one lane group per component.
const (
	TracePidCores = 1 // tid = core id
	TracePidSwap  = 2 // tid = swap-buffer slot (op sequence % MaxOps)
)

// TraceTidQueue is the swap-engine track that carries scheme queue events
// (request instants, queue-wait spans) and remap commits; transfer spans
// live on tids 0..MaxOps-1.
const TraceTidQueue = 99

// pageShift turns the byte addresses of probe events into the 4KB page
// numbers the trace's "page" arguments carry.
const pageShift = 12

// traceEvent is one Chrome trace-event. Fields mirror the Trace Event
// Format; values stay scalar so recording never boxes into interfaces.
type traceEvent struct {
	name string
	cat  string
	ph   byte // 'X' complete, 'i' instant, 's' flow start, 'f' flow finish, 'M' metadata
	ts   uint64
	dur  uint64
	pid  int32
	tid  int32
	id   uint64
	argK string
	argV uint64
	argS string
}

// Tracer collects Chrome-trace/Perfetto events. As a Probe subscriber it
// draws swap lifecycle spans, scheme queue events and MMU-hint causality
// arrows. Timestamps are CPU cycles written as trace microseconds —
// absolute durations read 1 cycle = 1us in the UI, which keeps relative
// timing exact.
type Tracer struct {
	NopProbe
	events []traceEvent

	// hintSeq numbers MMU-hint causality arrows; hintFlow remembers, by
	// page, where each hint fired, so the arrow is emitted retroactively —
	// only when a hint-path swap of that page starts (dangling arrows
	// clutter Perfetto and bloat the trace; most hints trigger nothing).
	hintSeq  uint64
	hintFlow map[uint64]hintOrigin
}

type hintOrigin struct {
	id, ts uint64
	core   int
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{hintFlow: make(map[uint64]hintOrigin)} }

// Hint marks an MMU hint on its core's lane and remembers it as the origin
// of the page's causality arrow.
func (t *Tracer) Hint(addr, cycle, now uint64, core int, vpn uint64) {
	t.hintSeq++
	t.Instant("hint", "mmu-hint", TracePidCores, core, now, "vpn", vpn)
	t.hintFlow[addr>>pageShift] = hintOrigin{id: t.hintSeq, ts: now, core: core}
}

// SwapRequested marks a request entering the swap admission stage.
func (t *Tracer) SwapRequested(addr uint64, kind string, now uint64) {
	t.Instant("swap", "request:"+kind, TracePidSwap, TraceTidQueue, now, "page", addr>>pageShift)
}

// SwapQueued draws a request's wait in the swap admission queue.
func (t *Tracer) SwapQueued(addr uint64, kind string, enq, now uint64) {
	if now > enq {
		t.Complete("swap", "queued:"+kind, TracePidSwap, TraceTidQueue, enq, now, "page", addr>>pageShift)
	}
}

// SwapStarted draws the MMU-hint arrow of a hint-path swap, from where the
// page's hint fired to the start of the swap's transfer span.
func (t *Tracer) SwapStarted(s *Swap) {
	if !s.HintPath {
		return
	}
	o, ok := t.hintFlow[s.Addr>>pageShift]
	if !ok {
		return
	}
	delete(t.hintFlow, s.Addr>>pageShift)
	t.FlowStart("hint", "mmu-hint", o.id, TracePidCores, o.core, o.ts)
	t.FlowEnd("hint", "mmu-hint", o.id, TracePidSwap, s.Slot, s.Start)
}

// SwapStage draws one transfer stage on the swap's track.
func (t *Tracer) SwapStage(s *Swap, stage int, began, now, lines uint64) {
	t.Complete("swap", "stage-"+strconv.Itoa(stage), TracePidSwap, s.Slot, began, now, "lines", lines)
}

// SwapCommitted draws the swap's whole transfer span and marks the moment
// its new mapping became architecturally visible.
func (t *Tracer) SwapCommitted(s *Swap, now uint64) {
	label := s.Label
	if label == "" {
		label = "swap"
	}
	t.Complete("swap", label, TracePidSwap, s.Slot, s.Start, now, "stages", uint64(s.StageCount))
	t.Instant("swap", "remap-commit", TracePidSwap, TraceTidQueue, now, "page", s.Addr>>pageShift)
}

// ProcessName emits the metadata event naming a trace process lane.
func (t *Tracer) ProcessName(pid int, name string) {
	t.events = append(t.events, traceEvent{
		name: "process_name", ph: 'M', pid: int32(pid), argK: "name", argS: name,
	})
}

// Complete records a duration span [start, end] on (pid, tid).
func (t *Tracer) Complete(cat, name string, pid, tid int, start, end uint64, argK string, argV uint64) {
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'X', ts: start, dur: end - start,
		pid: int32(pid), tid: int32(tid), argK: argK, argV: argV,
	})
}

// Instant records a point event at ts on (pid, tid).
func (t *Tracer) Instant(cat, name string, pid, tid int, ts uint64, argK string, argV uint64) {
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'i', ts: ts,
		pid: int32(pid), tid: int32(tid), argK: argK, argV: argV,
	})
}

// FlowStart opens causality arrow id at ts on (pid, tid); FlowEnd with the
// same id draws the arrow to its destination.
func (t *Tracer) FlowStart(cat, name string, id uint64, pid, tid int, ts uint64) {
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 's', ts: ts, id: id, pid: int32(pid), tid: int32(tid),
	})
}

// FlowEnd closes causality arrow id at ts on (pid, tid).
func (t *Tracer) FlowEnd(cat, name string, id uint64, pid, tid int, ts uint64) {
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'f', ts: ts, id: id, pid: int32(pid), tid: int32(tid),
	})
}

// Counter records a counter-track sample: Perfetto plots each distinct
// (pid, name) as its own counter lane, stepping to value v at ts.
func (t *Tracer) Counter(cat, name string, pid int, ts uint64, argK string, v uint64) {
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'C', ts: ts, pid: int32(pid), argK: argK, argV: v,
	})
}

// jsonEvent is the wire form of one event (Trace Event Format fields).
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	ID   *uint64        `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"` // flow-finish binding point
	S    string         `json:"s,omitempty"`  // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object form of the Chrome trace format, which
// Perfetto and chrome://tracing both load.
type traceFile struct {
	TraceEvents     []jsonEvent       `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// WriteJSON writes the collected events as a Chrome trace-event JSON object.
func (t *Tracer) WriteJSON(w io.Writer) error {
	out := traceFile{
		TraceEvents:     make([]jsonEvent, 0, len(t.events)),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"clock": "cpu-cycles (1 cycle = 1us in the UI)"},
	}
	for i := range t.events {
		e := &t.events[i]
		je := jsonEvent{
			Name: e.name, Cat: e.cat, Ph: string(e.ph), Ts: e.ts,
			Pid: e.pid, Tid: e.tid,
		}
		switch e.ph {
		case 'X':
			d := e.dur
			je.Dur = &d
		case 'i':
			je.S = "t" // thread-scoped instant
		case 's':
			id := e.id
			je.ID = &id
		case 'f':
			id := e.id
			je.ID = &id
			je.BP = "e" // bind to the enclosing slice
		}
		if e.argK != "" {
			if e.argS != "" {
				je.Args = map[string]any{e.argK: e.argS}
			} else {
				je.Args = map[string]any{e.argK: e.argV}
			}
		}
		out.TraceEvents = append(out.TraceEvents, je)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
