// Package ledger is the swap-provenance ledger: an always-compiled,
// off-by-default attribution layer that records each swap's full causal
// chain — what triggered it (MMU hint at final-PTE computation, PCT
// prefetch, regular HPT threshold, or follower correlation), when it was
// hinted, enqueued, started and committed, how long each transfer stage
// took, and finally whether the swapped-in data was ever demanded in DRAM
// before being evicted again.
//
// The paper's evaluation (PAPER.md §V–VI) rests on exactly this accounting:
// the mix of swap triggers, the fraction of swaps that pay off, and the
// bandwidth wasted on ones that don't. The obs layer's latency histograms
// say how fast requests complete; the ledger says whether the swap
// machinery earned its bandwidth.
//
// The ledger is an obs.Probe subscriber: it learns everything from the
// swap-lifecycle event stream, so a scheme needs no ledger code to be
// accounted. A simulator without a ledger simply does not attach one (the
// disabled stream allocates nothing; TestZeroAllocDisabledLedger, part of
// the Makefile allocguard gate), and the nil ledger's digest methods
// return zero values. A run is single-threaded, so the ledger needs no
// locking; campaign-level parallelism gives each run its own ledger.
package ledger

import (
	"pageseer/internal/check"
	"pageseer/internal/obs"
)

// Outcome is a record's position in the outcome state machine: Open while
// the swapped-in data has neither been demanded nor evicted, Useful on the
// first demand hit, Unused if eviction arrives first. Useful and Unused are
// terminal; records still Open at the end of a run stay Open ("in-flight"
// in the conservation law).
type Outcome int

// The outcomes.
const (
	OutcomeOpen Outcome = iota
	OutcomeUseful
	OutcomeUnused
)

// String names the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeOpen:
		return "open"
	case OutcomeUseful:
		return "useful"
	case OutcomeUnused:
		return "unused"
	}
	return "?"
}

// maxStages bounds the per-stage duration array; no exchange shape has
// more than two transfer stages (PageSeer's optimized slow swap).
const maxStages = 2

// Record is one swap's full causal chain.
type Record struct {
	ID          uint64 // the swap's engine-assigned ID (obs.Swap.ID)
	Unit        uint64 // swap unit (addr >> unitShift) of the swapped-in data
	Victim      uint64 // unit of the displaced data, when VictimValid
	VictimValid bool
	Trigger     obs.Trigger

	Hinted    bool   // an MMU hint preceded the swap request
	HintCycle uint64 // cycle the hint was computed (final-PTE computation)

	RequestCycle uint64 // cycle the swap was requested/enqueued
	StartCycle   uint64 // cycle the engine accepted the op
	StageCycles  [maxStages]uint64
	Stages       int

	Committed   bool
	CommitCycle uint64 // remap-commit cycle (tables updated, swap visible)

	Outcome       Outcome
	FirstUseCycle uint64 // first demand hit on the swapped-in data
	// Late marks a swap whose payoff raced its own machinery: demand for
	// the incoming data arrived before the remap committed, or the victim
	// was re-requested while its eviction was still in flight.
	Late bool

	BytesDRAM uint64 // bytes the op moved on the DRAM module
	BytesNVM  uint64 // bytes the op moved on the NVM module
}

// Summary is the per-run effectiveness digest surfaced in
// sim.Results.Effectiveness. Fixed-size fields only, so campaign results
// stay DeepEqual-comparable across serial and parallel runs.
type Summary struct {
	// Per-trigger outcome counts: the swap-type mix and its payoff.
	Started [obs.NumTriggers]uint64
	Useful  [obs.NumTriggers]uint64
	Unused  [obs.NumTriggers]uint64
	Open    [obs.NumTriggers]uint64

	// Late swaps (demand raced the in-flight transfer; see Record.Late).
	Late uint64

	// Accuracy = useful / started; Coverage = demand accesses landing on
	// swapped-in units / all demand accesses. Both in [0,1] by
	// construction.
	Accuracy float64
	Coverage float64

	DemandTotal   uint64
	DemandCovered uint64

	// Transfer bytes spent on swaps whose data was evicted unused.
	WastedDRAMBytes uint64
	WastedNVMBytes  uint64

	// LeadTime distributes hint-to-first-use cycles over hinted useful
	// swaps; LeadTimeLog2 is the underlying log2 bucket vector.
	LeadTime     obs.Dist
	LeadTimeLog2 [obs.HistBuckets]uint64
}

// TotalStarted sums the trigger mix.
func (s Summary) TotalStarted() uint64 {
	var t uint64
	for _, v := range s.Started {
		t += v
	}
	return t
}

// TotalUseful sums useful swaps over triggers.
func (s Summary) TotalUseful() uint64 {
	var t uint64
	for _, v := range s.Useful {
		t += v
	}
	return t
}

// TotalUnused sums unused swaps over triggers.
func (s Summary) TotalUnused() uint64 {
	var t uint64
	for _, v := range s.Unused {
		t += v
	}
	return t
}

// TotalOpen sums still-open swaps over triggers.
func (s Summary) TotalOpen() uint64 {
	var t uint64
	for _, v := range s.Open {
		t += v
	}
	return t
}

// Ledger records swap provenance for one run. The zero value is unusable;
// build with New. A nil *Ledger digests to zero values.
type Ledger struct {
	obs.NopProbe
	shift uint // addr -> unit conversion (log2 of the scheme's swap unit)

	baseID  uint64 // swap IDs <= baseID belong to records dropped by Reset
	records []Record

	// hints holds MMU hints not yet consumed by a swap start: unit ->
	// computation cycle (latest wins). Swap starts consume their unit's
	// hint regardless of trigger, so an upgraded-in-place request keeps
	// its provenance.
	hints map[uint64]uint64

	// in maps a swapped-in unit to its record index for the whole
	// residency window (start through eviction); vict maps a displaced
	// unit to its record index until the remap commits.
	in   map[uint64]uint32
	vict map[uint64]uint32

	started [obs.NumTriggers]uint64
	useful  [obs.NumTriggers]uint64
	unused  [obs.NumTriggers]uint64
	late    uint64

	demandTotal   uint64
	demandCovered uint64

	wastedDRAM uint64
	wastedNVM  uint64

	leadTime obs.Histogram
}

// New builds a ledger for a scheme whose swap unit is 1<<unitShift bytes
// (page for PageSeer/Static, segment for PoM/MemPod). All addresses passed
// to the recording methods are OS-visible physical byte addresses — the
// data-identity key every scheme swaps by.
func New(unitShift uint) *Ledger {
	return &Ledger{
		shift: unitShift,
		hints: make(map[uint64]uint64),
		in:    make(map[uint64]uint32),
		vict:  make(map[uint64]uint32),
	}
}

// Unit converts an OS-visible byte address to the ledger's swap unit.
func (l *Ledger) Unit(addr uint64) uint64 { return addr >> l.shift }

// Hint records an MMU hint for the page at addr computed at cycle. The
// hint is consumed by the next swap start on the same unit; re-hints
// overwrite. A refused start never reaches the ledger, so the hint waits
// for the retry.
func (l *Ledger) Hint(addr, cycle, now uint64, core int, vpn uint64) {
	l.hints[l.Unit(addr)] = cycle
}

// SwapStarted opens a record for an engine-accepted swap.
func (l *Ledger) SwapStarted(s *obs.Swap) {
	unit := l.Unit(s.Addr)
	r := Record{
		ID: s.ID, Unit: unit, Trigger: s.Trigger,
		RequestCycle: s.Request, StartCycle: s.Start,
		BytesDRAM: s.BytesDRAM, BytesNVM: s.BytesNVM,
	}
	if hc, ok := l.hints[unit]; ok {
		r.Hinted, r.HintCycle = true, hc
		delete(l.hints, unit)
	}
	if s.HasVictim {
		r.Victim, r.VictimValid = l.Unit(s.Victim), true
	}
	idx := uint32(len(l.records))
	l.records = append(l.records, r)
	l.in[unit] = idx
	if r.VictimValid {
		l.vict[r.Victim] = idx
	}
	l.started[s.Trigger]++
}

// record maps a swap ID to its record, discarding swaps started before
// Reset.
func (l *Ledger) record(id uint64) (int, bool) {
	if id <= l.baseID || id-l.baseID > uint64(len(l.records)) {
		return 0, false
	}
	idx := int(id - l.baseID - 1)
	return idx, l.records[idx].ID == id
}

// SwapStage records the duration of one transfer stage.
func (l *Ledger) SwapStage(s *obs.Swap, stage int, began, now, lines uint64) {
	idx, ok := l.record(s.ID)
	if !ok || stage < 0 || stage >= maxStages {
		return
	}
	r := &l.records[idx]
	r.StageCycles[stage] = now - began
	if stage >= r.Stages {
		r.Stages = stage + 1
	}
}

// SwapCommitted records the remap commit — the swap is now architecturally
// visible and the victim's eviction window closes — and then the victim
// leaving DRAM.
func (l *Ledger) SwapCommitted(s *obs.Swap, now uint64) {
	if idx, ok := l.record(s.ID); ok {
		r := &l.records[idx]
		r.Committed, r.CommitCycle = true, now
		if r.VictimValid {
			if vi, ok := l.vict[r.Victim]; ok && vi == uint32(idx) {
				delete(l.vict, r.Victim)
			}
		}
	}
	if s.HasVictim {
		l.evicted(s.Victim)
	}
}

// Demand records one data demand access reaching the HMC for addr at cycle
// now (page-walk reads, source LatPTE, are not data demand). A demand landing on a swapped-in unit is the swap's payoff: the
// first one marks the record Useful (Late when it beat the remap commit).
// A demand landing on a victim still being evicted marks the record Late —
// the swap machinery displaced data the core still wanted — and is
// deliberately NOT counted useful (see TestVictimReRequestIsLateNotUseful).
func (l *Ledger) Demand(addr uint64, write bool, src obs.LatSource, now uint64) {
	if src == obs.LatPTE {
		return
	}
	l.demandTotal++
	unit := l.Unit(addr)
	if idx, ok := l.in[unit]; ok {
		l.demandCovered++
		r := &l.records[idx]
		if r.Outcome == OutcomeOpen {
			r.Outcome = OutcomeUseful
			r.FirstUseCycle = now
			if !r.Committed {
				r.Late = true
				l.late++
			}
			l.useful[r.Trigger]++
			if r.Hinted && now >= r.HintCycle {
				l.leadTime.Record(now - r.HintCycle)
			}
		}
		return
	}
	if idx, ok := l.vict[unit]; ok {
		r := &l.records[idx]
		if !r.Late {
			r.Late = true
			l.late++
		}
	}
}

// TriggerOf reports what triggered the swap that brought addr's unit into
// DRAM, when the unit is currently swapped in. It is a read-only residency
// lookup (no outcome transitions) — the cycle-accounting layer uses it to
// classify a demand hit by the provenance of the data it landed on.
func (l *Ledger) TriggerOf(addr uint64) (obs.Trigger, bool) {
	idx, ok := l.in[l.Unit(addr)]
	if !ok {
		return 0, false
	}
	return l.records[idx].Trigger, true
}

// evicted closes addr's residency window: the unit leaves DRAM. A record
// still Open becomes Unused and its transfer bytes are charged as waste.
func (l *Ledger) evicted(addr uint64) {
	unit := l.Unit(addr)
	idx, ok := l.in[unit]
	if !ok {
		return
	}
	delete(l.in, unit)
	r := &l.records[idx]
	if r.Outcome == OutcomeOpen {
		r.Outcome = OutcomeUnused
		l.unused[r.Trigger]++
		l.wastedDRAM += r.BytesDRAM
		l.wastedNVM += r.BytesNVM
	}
}

// Reset drops every record and pending hint — called at the end of
// warm-up so the measured epoch starts clean. Stage/commit callbacks for
// ops started before the reset carry stale IDs and are ignored.
func (l *Ledger) Reset() {
	if l == nil {
		return
	}
	l.baseID += uint64(len(l.records))
	l.records = l.records[:0]
	clear(l.hints)
	clear(l.in)
	clear(l.vict)
	l.started = [obs.NumTriggers]uint64{}
	l.useful = [obs.NumTriggers]uint64{}
	l.unused = [obs.NumTriggers]uint64{}
	l.late = 0
	l.demandTotal, l.demandCovered = 0, 0
	l.wastedDRAM, l.wastedNVM = 0, 0
	l.leadTime = obs.Histogram{}
}

// Counts returns the running totals the Perfetto counter tracks plot.
func (l *Ledger) Counts() (started, useful, unused, open uint64) {
	if l == nil {
		return 0, 0, 0, 0
	}
	for t := 0; t < int(obs.NumTriggers); t++ {
		started += l.started[t]
		useful += l.useful[t]
		unused += l.unused[t]
	}
	return started, useful, unused, started - useful - unused
}

// Records exposes the raw record log (for tests and post-mortem tools).
func (l *Ledger) Records() []Record {
	if l == nil {
		return nil
	}
	return l.records
}

// Summary reduces the ledger to the per-run effectiveness digest. A nil
// ledger yields the zero summary.
func (l *Ledger) Summary() Summary {
	if l == nil {
		return Summary{}
	}
	var s Summary
	s.Started = l.started
	s.Useful = l.useful
	s.Unused = l.unused
	for t := 0; t < int(obs.NumTriggers); t++ {
		s.Open[t] = l.started[t] - l.useful[t] - l.unused[t]
	}
	s.Late = l.late
	if tot := s.TotalStarted(); tot > 0 {
		s.Accuracy = float64(s.TotalUseful()) / float64(tot)
	}
	s.DemandTotal, s.DemandCovered = l.demandTotal, l.demandCovered
	if l.demandTotal > 0 {
		s.Coverage = float64(l.demandCovered) / float64(l.demandTotal)
	}
	s.WastedDRAMBytes, s.WastedNVMBytes = l.wastedDRAM, l.wastedNVM
	s.LeadTime = l.leadTime.Summary()
	s.LeadTimeLog2 = l.leadTime.Counts
	return s
}

// Audit checks the ledger's conservation law — every started swap is
// exactly one of useful, unused, or still open — plus the internal
// registration bookkeeping backing it. Registered with the end-of-run
// audits when both the ledger and Config.Audit are enabled.
func (l *Ledger) Audit(a *check.Audit) {
	if l == nil {
		return
	}
	var started, useful, unused uint64
	for t := 0; t < int(obs.NumTriggers); t++ {
		started += l.started[t]
		useful += l.useful[t]
		unused += l.unused[t]
		if l.useful[t]+l.unused[t] > l.started[t] {
			a.Checkf(false, "ledger: trigger %v resolved %d swaps but started only %d",
				obs.Trigger(t), l.useful[t]+l.unused[t], l.started[t])
		}
	}
	open := uint64(0)
	if useful+unused <= started {
		open = started - useful - unused
	}
	a.Checkf(useful+unused+open == started,
		"ledger conservation: useful %d + unused %d + open %d != started %d",
		useful, unused, open, started)

	// Every Open record's unit must still be registered, and every
	// registered victim must belong to an uncommitted record.
	var openRecs uint64
	for i := range l.records {
		r := &l.records[i]
		if r.Outcome == OutcomeOpen {
			openRecs++
			if idx, ok := l.in[r.Unit]; !ok || int(idx) != i {
				a.Checkf(false, "ledger: open record %d (unit %#x) lost its residency registration", r.ID, r.Unit)
			}
		}
	}
	a.Checkf(openRecs == open,
		"ledger: %d records are Open but counters say %d", openRecs, open)
	for unit, idx := range l.vict {
		if int(idx) >= len(l.records) || l.records[idx].Committed {
			a.Checkf(false, "ledger: victim unit %#x registered to a committed or missing record", unit)
		}
	}
	a.Checkf(l.demandCovered <= l.demandTotal,
		"ledger coverage: covered %d > total %d", l.demandCovered, l.demandTotal)
}
