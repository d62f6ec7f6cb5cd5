package obs

import "strconv"

// TimelineCounters is one snapshot of the cumulative run counters the
// timeline derives its samples from. The probe that fills it lives in sim
// (which can see cores, controller, swap engine, and memory modules); obs
// only diffs successive snapshots, keeping this package dependency-free.
type TimelineCounters struct {
	Cycle          uint64
	Instructions   uint64 // summed over cores, cumulative since epoch start
	SwapsCompleted uint64 // scheme-reported completed swaps/migrations
	SwapsInFlight  int    // swap-engine operations currently running
	ServedDRAM     uint64 // cumulative service-source counters
	ServedNVM      uint64
	ServedBuf      uint64
	DRAMQueue      int // channel-queue occupancy right now
	NVMQueue       int
}

// TimelineSample is one exported interval of the epoch timeline. Counter
// fields are deltas over the interval; queue and in-flight fields are
// point-in-time occupancies at the sample instant.
type TimelineSample struct {
	Cycle         uint64  `json:"cycle"`
	Instructions  uint64  `json:"instructions"`
	IPC           float64 `json:"ipc"`
	Swaps         uint64  `json:"swaps"`
	SwapsInFlight int     `json:"swaps_in_flight"`
	ServedDRAM    uint64  `json:"served_dram"`
	ServedNVM     uint64  `json:"served_nvm"`
	ServedBuf     uint64  `json:"served_buf"`
	DRAMQueue     int     `json:"dram_queue"`
	NVMQueue      int     `json:"nvm_queue"`
}

// Timeline periodically snapshots run counters during the measured epoch —
// driven by the engine's cycle-tick hook, never by queued events, so an
// armed timeline cannot keep the event loop alive. Sampling allocates only
// on slice growth; no engine state is touched, so enabling a timeline does
// not perturb the simulation.
type Timeline struct {
	// Every is the nominal sampling period in CPU cycles. Actual sample
	// cycles are recorded per sample: discrete-event time jumps, so a
	// sample fires at the first event on or after each period boundary.
	Every uint64

	probe   func() TimelineCounters
	prev    TimelineCounters
	started bool
	samples []TimelineSample
}

// NewTimeline builds a sampler with the given period over the given counter
// probe. Call Start at the beginning of the measured epoch, arrange for Tick
// to run every period (engine.Sim.SetTick), and Finish at the end.
func NewTimeline(every uint64, probe func() TimelineCounters) *Timeline {
	if every == 0 {
		panic("obs: timeline period must be positive")
	}
	return &Timeline{Every: every, probe: probe}
}

// Start records the epoch-start baseline all deltas are measured from.
func (t *Timeline) Start() {
	t.prev = t.probe()
	t.started = true
}

// Tick takes one sample: it reads the probe and appends the interval deltas
// since the previous sample (or Start).
func (t *Timeline) Tick() {
	if !t.started {
		t.Start()
		return
	}
	c := t.probe()
	s := TimelineSample{
		Cycle:         c.Cycle,
		Instructions:  c.Instructions - t.prev.Instructions,
		Swaps:         c.SwapsCompleted - t.prev.SwapsCompleted,
		SwapsInFlight: c.SwapsInFlight,
		ServedDRAM:    c.ServedDRAM - t.prev.ServedDRAM,
		ServedNVM:     c.ServedNVM - t.prev.ServedNVM,
		ServedBuf:     c.ServedBuf - t.prev.ServedBuf,
		DRAMQueue:     c.DRAMQueue,
		NVMQueue:      c.NVMQueue,
	}
	if dc := c.Cycle - t.prev.Cycle; dc > 0 {
		s.IPC = float64(s.Instructions) / float64(dc)
	}
	t.samples = append(t.samples, s)
	t.prev = c
}

// Finish takes a final sample covering the tail interval (drained swaps,
// the last partial period) so that interval counters sum exactly to the
// epoch totals — the invariant the timeline's swap column is pinned on.
func (t *Timeline) Finish() {
	if !t.started {
		return
	}
	if c := t.probe(); c != t.prev {
		t.Tick()
	}
}

// Samples returns the collected intervals.
func (t *Timeline) Samples() []TimelineSample { return t.samples }

// SwapsTotal returns the sum of per-interval swap counts — equal to the
// epoch's completed-swap total when Start/Finish bracket the epoch.
func (t *Timeline) SwapsTotal() uint64 {
	var n uint64
	for _, s := range t.samples {
		n += s.Swaps
	}
	return n
}

// TimelineColumns is the timeline's CSV shape; its IPC cell keeps six
// decimals.
var TimelineColumns = Columns[TimelineSample]{
	Header: []string{"cycle", "instructions", "ipc", "swaps", "swaps_in_flight",
		"served_dram", "served_nvm", "served_buf", "dram_queue", "nvm_queue"},
	Record: func(s TimelineSample) []string {
		return []string{
			Uint(s.Cycle), Uint(s.Instructions), strconv.FormatFloat(s.IPC, 'f', 6, 64), Uint(s.Swaps),
			strconv.Itoa(s.SwapsInFlight), Uint(s.ServedDRAM), Uint(s.ServedNVM), Uint(s.ServedBuf),
			strconv.Itoa(s.DRAMQueue), strconv.Itoa(s.NVMQueue),
		}
	},
}
