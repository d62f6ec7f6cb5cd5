// Package pagemap is the address-space telemetry layer: an always-compiled,
// off-by-default per-page table that keeps, for every swap unit the machine
// touches, its demand-access heat split by service source (DRAM, NVM, swap
// buffer, PTE-cache bypass), its read/write mix, the NVM line-writes charged
// against it (wear accounting), its swap-in/swap-out history with the
// swap trigger taxonomy, its current residency plus a binned residency
// timeline, and flap detection — a page counts as flapping when it completes
// >= K DRAM<->NVM round trips inside a sliding cycle window.
//
// The existing observability aggregates per-request (obs latency histograms)
// or per-swap (the provenance ledger) and throws the address away; this
// package keeps it, so questions like "which pages ping-pong", "how big is
// the hot set", and "where does NVM wear land" become answerable per run and
// comparable across schemes. Rows are keyed by the scheme's swap unit (page
// for PageSeer/Static, 2KB segment for PoM/MemPod) — the same data-identity
// key the ledger uses — and every address passed in is an OS-visible
// physical byte address.
//
// The pagemap is an obs.Probe subscriber: accesses and swap lifecycle
// events reach it through the controller's event stream, so no scheme
// carries pagemap code. A simulator without a pagemap simply does not
// attach one (the disabled stream allocates nothing;
// TestZeroAllocDisabledPageMap, part of the Makefile allocguard gate), and
// the nil pagemap's digest methods return zero values. A run is
// single-threaded; campaign-level parallelism gives each run its own
// pagemap.
package pagemap

import (
	"sort"

	"pageseer/internal/check"
	"pageseer/internal/obs"
)

// Residency is a row's tracked location, learned from swap lifecycle events
// and reconciled against observed service sources.
type Residency int8

// The residency states. Unknown means the page has only ever been seen via
// sources that carry no location information (swap buffer, PTE cache).
const (
	ResUnknown Residency = iota
	ResNVM
	ResDRAM
)

// String names the residency for reports.
func (r Residency) String() string {
	switch r {
	case ResNVM:
		return "nvm"
	case ResDRAM:
		return "dram"
	}
	return "?"
}

// TopPages is the size of the fixed top-churn digest in Summary.
const TopPages = 8

// DefaultFlapK and DefaultFlapWindow are the flap-detection defaults: a page
// flaps when it completes DefaultFlapK DRAM<->NVM round trips inside a
// sliding DefaultFlapWindow-cycle window. Tuned so short smoke runs of the
// bundled pointer-chasing workloads still surface genuine ping-pong pages.
const (
	DefaultFlapK      = 2
	DefaultFlapWindow = 2_000_000
)

// timelineBits is the width of the per-row residency-timeline bitmask.
const timelineBits = 64

// row is one swap unit's telemetry. Residency state (res, resInit) mirrors
// machine state and survives Reset; everything else is measured-epoch stats.
type row struct {
	unit uint64

	demand   [obs.NumLatSources]uint64 // detailed demand accesses by source
	reads    uint64                    // demand reads (sums with writes to demand total)
	writes   uint64                    // demand writes plus dirty writebacks (memory-level write mix)
	wb       uint64                    // dirty writebacks within writes (excluded from the demand law)
	ffReads  uint64                    // functional (fast-forward) reads
	ffWrites uint64                    // functional (fast-forward) writes

	wear uint64 // NVM line-writes charged to this unit

	swapIns   uint64
	swapOuts  uint64
	insByTrig [obs.NumTriggers]uint64
	unusedIns uint64 // swap-ins evicted before any access touched the data

	// reconIn/reconOut count residency flips learned by observation rather
	// than a lifecycle event: a demand or functional access whose service
	// source contradicts the tracked residency. In detailed mode these stay
	// near zero; in sampled mode they absorb the swaps the functional
	// fast-forward commits without the swap engine.
	reconIn  uint64
	reconOut uint64

	flips      uint64 // residency transitions from a known state
	roundTrips uint64 // completed DRAM<->NVM round trips (= flips/2)
	flapEvents uint64

	res     Residency
	resInit Residency // residency implied before the first event of the epoch

	pendingUse bool // swapped in, data not yet demanded
	touched    bool // saw any event this epoch (Reset clears)

	lastAccess uint64
	hasAccess  bool

	trips    []uint64 // ring of the last flapK round-trip completion cycles
	tripN    int
	tripPos  int
	timeline uint64 // bit b set: unit observed DRAM-resident in time bin b
}

// accesses is the row's total access count (demand plus functional).
func (r *row) accesses() uint64 {
	var t uint64
	for _, v := range r.demand {
		t += v
	}
	return t + r.ffReads + r.ffWrites
}

// PageMap records per-page telemetry for one run. The zero value is
// unusable; build with New. A nil *PageMap digests to zero values.
type PageMap struct {
	obs.NopProbe
	shift      uint   // addr -> unit conversion (log2 of the scheme's swap unit)
	flapK      int    // round trips per flap event
	flapWindow uint64 // sliding window, in cycles

	rows  []row
	index map[uint64]uint32

	// timeline binning: bin b covers cycles [b<<binShift, (b+1)<<binShift).
	// binShift self-scales: when a cycle lands past bit 63 every row's mask
	// is compressed by OR-ing bit pairs and the bin width doubles.
	binShift uint

	reuse obs.Histogram // temporal reuse distance (cycles between accesses)
}

// New builds a pagemap for a scheme whose swap unit is 1<<unitShift bytes.
// flapK is the round-trip count that defines a flap; flapWindow is the
// sliding window in cycles those round trips must fit inside.
func New(unitShift uint, flapK int, flapWindow uint64) *PageMap {
	if flapK < 1 {
		flapK = 1
	}
	return &PageMap{
		shift:      unitShift,
		flapK:      flapK,
		flapWindow: flapWindow,
		index:      make(map[uint64]uint32),
		binShift:   12, // 4096-cycle bins until the run outgrows them
	}
}

// Unit converts an OS-visible byte address to the pagemap's swap unit.
func (p *PageMap) Unit(addr uint64) uint64 { return addr >> p.shift }

// row returns addr's row, creating it on first sight.
func (p *PageMap) row(unit uint64) *row {
	if idx, ok := p.index[unit]; ok {
		return &p.rows[idx]
	}
	p.index[unit] = uint32(len(p.rows))
	p.rows = append(p.rows, row{unit: unit})
	return &p.rows[len(p.rows)-1]
}

// place moves a row to a known residency. Initialization from Unknown sets
// resInit and is not a flip; a change from a known state is, and completing
// a round trip (every second flip) feeds the flap detector. recon marks
// observation-driven flips (service source contradicting tracked state) as
// opposed to lifecycle-event flips, which the caller accounts as swap events.
func (p *PageMap) place(r *row, want Residency, now uint64, recon bool) {
	if r.res == want {
		return
	}
	if r.res == ResUnknown {
		if r.resInit == ResUnknown {
			if want == ResDRAM && !recon {
				// A swap-in implies the unit lived in NVM beforehand.
				r.resInit = ResNVM
			} else if want == ResNVM && !recon {
				// A swap-out implies it lived in DRAM.
				r.resInit = ResDRAM
			} else {
				r.resInit = want
			}
		}
		if r.resInit != want {
			// First event already moved the unit: count the flip.
			r.res = r.resInit
		} else {
			r.res = want
			return
		}
	}
	r.res = want
	r.flips++
	if recon {
		if want == ResDRAM {
			r.reconIn++
		} else {
			r.reconOut++
		}
	}
	if r.flips%2 == 0 {
		r.roundTrips++
		p.tripDone(r, now)
	}
}

// tripDone records a round-trip completion at cycle now and fires a flap
// event when the last flapK completions fit inside the sliding window.
func (p *PageMap) tripDone(r *row, now uint64) {
	if r.trips == nil {
		r.trips = make([]uint64, p.flapK)
	}
	r.trips[r.tripPos] = now
	r.tripPos = (r.tripPos + 1) % p.flapK
	if r.tripN < p.flapK {
		r.tripN++
	}
	if r.tripN < p.flapK {
		return
	}
	oldest := r.trips[r.tripPos] // K-1 completions back
	if now-oldest <= p.flapWindow {
		r.flapEvents++
	}
}

// mark stamps the residency timeline and reuse-distance trackers for an
// access (or residency event) at cycle now.
func (p *PageMap) mark(r *row, now uint64) {
	if r.res != ResDRAM {
		return
	}
	bin := now >> p.binShift
	for bin >= timelineBits {
		p.compressTimelines()
		bin = now >> p.binShift
	}
	r.timeline |= uint64(1) << bin
}

// compressTimelines doubles the timeline bin width: every row's mask is
// folded by OR-ing adjacent bit pairs. Runs at most ~50 times per run.
func (p *PageMap) compressTimelines() {
	for i := range p.rows {
		old := p.rows[i].timeline
		var nw uint64
		for b := uint(0); b < timelineBits/2; b++ {
			if old&(3<<(2*b)) != 0 {
				nw |= uint64(1) << b
			}
		}
		p.rows[i].timeline = nw
	}
	p.binShift++
}

// touch updates the reuse-distance digest and wasted-swap tracking shared by
// demand and functional accesses.
func (p *PageMap) touch(r *row, now uint64) {
	r.touched = true
	r.pendingUse = false
	if r.hasAccess && now >= r.lastAccess {
		p.reuse.Record(now - r.lastAccess)
	}
	r.hasAccess = true
	r.lastAccess = now
}

// Demand records one demand access to addr at cycle now, serviced by src.
// An NVM-serviced write is charged as one NVM line-write of wear. DRAM/NVM
// sources carry residency information and reconcile the tracked state; the
// swap buffer and PTE cache do not.
func (p *PageMap) Demand(addr uint64, write bool, src obs.LatSource, now uint64) {
	r := p.row(p.Unit(addr))
	r.demand[src]++
	if write {
		r.writes++
	} else {
		r.reads++
	}
	switch src {
	case obs.LatDRAM:
		p.place(r, ResDRAM, now, true)
	case obs.LatNVM:
		p.place(r, ResNVM, now, true)
		if write {
			r.wear++
		}
	}
	p.touch(r, now)
	p.mark(r, now)
}

// Functional records one functional (fast-forward) access: sampled mode's
// gap executor bypasses the timing path, so residency is reported directly.
// Functional NVM writes count as wear like detailed ones.
func (p *PageMap) Functional(addr uint64, write, inDRAM bool, now uint64) {
	r := p.row(p.Unit(addr))
	if write {
		r.ffWrites++
		if !inDRAM {
			r.wear++
		}
	} else {
		r.ffReads++
	}
	if inDRAM {
		p.place(r, ResDRAM, now, true)
	} else {
		p.place(r, ResNVM, now, true)
	}
	p.touch(r, now)
	p.mark(r, now)
}

// Writeback records a dirty-line writeback landing on memory. The cache
// hierarchy is write-allocate, so stores reach memory only this way —
// writebacks ARE the memory-level write mix and count into writes; one to
// NVM is additionally a line-write of wear. Writebacks carry no residency
// information beyond what the demand path already reconciled (the module is
// the unit's current home by construction).
func (p *PageMap) Writeback(addr uint64, toDRAM bool, now uint64) {
	r := p.row(p.Unit(addr))
	r.touched = true
	r.writes++
	r.wb++
	if !toDRAM {
		r.wear++
	}
}

// SwapCommitted lands a swap. Its transfer wear (the NVM line-writes the
// engine counted on the swap) goes to the victim's row (its data is what
// the swap writes back to NVM), or to the incoming unit when there is no
// victim. The unit's remap is then architecturally visible, so it is
// DRAM-resident: a swap-in under the swap's trigger class, arming
// wasted-swap tracking (cleared by the first access). Finally the victim
// leaves DRAM for NVM; a swap-in of its own still unused at that point is
// counted wasted.
func (p *PageMap) SwapCommitted(s *obs.Swap, now uint64) {
	if s.NVMWrites > 0 {
		target := s.Addr
		if s.HasVictim {
			target = s.Victim
		}
		r := p.row(p.Unit(target))
		r.touched = true
		r.wear += s.NVMWrites
	}
	r := p.row(p.Unit(s.Addr))
	r.touched = true
	r.swapIns++
	r.insByTrig[s.Trigger]++
	r.pendingUse = true
	p.place(r, ResDRAM, now, false)
	p.mark(r, now)
	if s.HasVictim {
		r := p.row(p.Unit(s.Victim))
		r.touched = true
		r.swapOuts++
		if r.pendingUse {
			r.unusedIns++
			r.pendingUse = false
		}
		p.place(r, ResNVM, now, false)
	}
}

// Reset starts the measured epoch: every statistic is dropped but residency
// state is kept — it mirrors machine state, and an op straddling the reset
// still lands its commit on the right row. Called once at the end of
// global warm-up (not per sampling window: the pagemap deliberately
// accumulates across windows and fast-forward gaps).
func (p *PageMap) Reset() {
	if p == nil {
		return
	}
	for i := range p.rows {
		r := &p.rows[i]
		*r = row{unit: r.unit, res: r.res, resInit: r.res}
	}
	p.reuse = obs.Histogram{}
}

// Summary is the per-run digest surfaced in sim.Results.PageMap. Fixed-size
// fields only, so campaign results stay DeepEqual-comparable across serial
// and parallel runs.
type Summary struct {
	// UniquePages counts swap units touched during the measured epoch.
	UniquePages uint64

	// Demand accesses by service source (AMMAT four-way split), plus the
	// memory-level read/write mix — Reads are demand fills, Writes are
	// demand writes plus dirty writebacks (the only way stores reach memory
	// under the write-allocate hierarchy) — and the functional-access mix.
	DemandBySource [obs.NumLatSources]uint64
	Reads          uint64
	Writes         uint64
	FFReads        uint64
	FFWrites       uint64

	// NVMWearWrites totals NVM line-writes: NVM-serviced demand writes,
	// dirty writebacks to NVM, swap-transfer writes on the NVM module, and
	// functional NVM writes in sampled mode.
	NVMWearWrites uint64

	SwapIns      uint64
	SwapOuts     uint64
	InsByTrigger [obs.NumTriggers]uint64
	UnusedIns    uint64

	// WastedSwapPages counts pages with at least one swap-in evicted before
	// any access touched the data.
	WastedSwapPages uint64

	RoundTrips    uint64
	FlapEvents    uint64
	FlappingPages uint64

	// Hot-set sizes: the smallest page count covering 50/90/99% of all
	// accesses (demand + functional).
	HotSet50 uint64
	HotSet90 uint64
	HotSet99 uint64

	// ResidentDRAM counts units currently tracked DRAM-resident.
	ResidentDRAM uint64

	// Temporal reuse distance (cycles between successive accesses to the
	// same unit), as a digest plus the underlying log2 buckets.
	ReuseDist     obs.Dist
	ReuseDistLog2 [obs.HistBuckets]uint64

	// Top is the churn leaderboard: the TopN most-churning pages (by
	// swap-ins + swap-outs, ties broken by flap events, accesses, then
	// address), so campaign tables need no raw-table access.
	Top  [TopPages]PageDigest
	TopN int
}

// PageDigest is one leaderboard entry.
type PageDigest struct {
	Page       uint64 // unit base byte address
	Accesses   uint64
	SwapIns    uint64
	SwapOuts   uint64
	FlapEvents uint64
	WearWrites uint64
	Resident   Residency
}

// DemandTotal sums the source split.
func (s Summary) DemandTotal() uint64 {
	var t uint64
	for _, v := range s.DemandBySource {
		t += v
	}
	return t
}

// Summary reduces the table to the per-run digest. A nil pagemap yields the
// zero summary.
func (p *PageMap) Summary() Summary {
	if p == nil {
		return Summary{}
	}
	var s Summary
	var hot []uint64
	var totalAcc uint64
	churn := make([]*row, 0, len(p.rows))
	for i := range p.rows {
		r := &p.rows[i]
		if r.res == ResDRAM {
			s.ResidentDRAM++
		}
		if !r.touched {
			continue
		}
		s.UniquePages++
		for src, v := range r.demand {
			s.DemandBySource[src] += v
		}
		s.Reads += r.reads
		s.Writes += r.writes
		s.FFReads += r.ffReads
		s.FFWrites += r.ffWrites
		s.NVMWearWrites += r.wear
		s.SwapIns += r.swapIns
		s.SwapOuts += r.swapOuts
		for t, v := range r.insByTrig {
			s.InsByTrigger[t] += v
		}
		s.UnusedIns += r.unusedIns
		if r.unusedIns > 0 {
			s.WastedSwapPages++
		}
		s.RoundTrips += r.roundTrips
		s.FlapEvents += r.flapEvents
		if r.flapEvents > 0 {
			s.FlappingPages++
		}
		if a := r.accesses(); a > 0 {
			hot = append(hot, a)
			totalAcc += a
		}
		if r.swapIns+r.swapOuts > 0 {
			churn = append(churn, r)
		}
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i] > hot[j] })
	s.HotSet50 = hotSet(hot, totalAcc, 50)
	s.HotSet90 = hotSet(hot, totalAcc, 90)
	s.HotSet99 = hotSet(hot, totalAcc, 99)
	sort.Slice(churn, func(i, j int) bool {
		a, b := churn[i], churn[j]
		ca, cb := a.swapIns+a.swapOuts, b.swapIns+b.swapOuts
		if ca != cb {
			return ca > cb
		}
		if a.flapEvents != b.flapEvents {
			return a.flapEvents > b.flapEvents
		}
		if aa, ab := a.accesses(), b.accesses(); aa != ab {
			return aa > ab
		}
		return a.unit < b.unit
	})
	for i := 0; i < len(churn) && i < TopPages; i++ {
		r := churn[i]
		s.Top[i] = PageDigest{
			Page:       r.unit << p.shift,
			Accesses:   r.accesses(),
			SwapIns:    r.swapIns,
			SwapOuts:   r.swapOuts,
			FlapEvents: r.flapEvents,
			WearWrites: r.wear,
			Resident:   r.res,
		}
		s.TopN++
	}
	s.ReuseDist = p.reuse.Summary()
	s.ReuseDistLog2 = p.reuse.Counts
	return s
}

// hotSet returns the smallest number of pages whose access counts (sorted
// descending) cover pct percent of total.
func hotSet(sorted []uint64, total uint64, pct uint64) uint64 {
	if total == 0 {
		return 0
	}
	need := (total*pct + 99) / 100 // ceil
	var cum, n uint64
	for _, a := range sorted {
		cum += a
		n++
		if cum >= need {
			return n
		}
	}
	return n
}

// Row is one swap unit's full record, for the -pagemap-csv/-json export.
// Field order matches the CSV header in figures' export.
type Row struct {
	Page        uint64 `json:"page"` // unit base byte address
	DRAM        uint64 `json:"dram"`
	NVM         uint64 `json:"nvm"`
	Buf         uint64 `json:"buf"`
	PTE         uint64 `json:"pte"`
	Reads       uint64 `json:"reads"`
	Writes      uint64 `json:"writes"`
	FFReads     uint64 `json:"ff_reads"`
	FFWrites    uint64 `json:"ff_writes"`
	WearWrites  uint64 `json:"wear_writes"`
	SwapIns     uint64 `json:"swap_ins"`
	SwapOuts    uint64 `json:"swap_outs"`
	InsRegular  uint64 `json:"ins_regular"`
	InsPCT      uint64 `json:"ins_pct"`
	InsMMU      uint64 `json:"ins_mmu"`
	InsFollower uint64 `json:"ins_follower"`
	UnusedIns   uint64 `json:"unused_ins"`
	RoundTrips  uint64 `json:"round_trips"`
	FlapEvents  uint64 `json:"flap_events"`
	Resident    string `json:"resident"`
	Timeline    uint64 `json:"timeline"` // residency bitmask, oldest bin = bit 0
}

// Rows exports every touched row, sorted by page address. A nil pagemap
// yields nil.
func (p *PageMap) Rows() []Row {
	if p == nil {
		return nil
	}
	out := make([]Row, 0, len(p.rows))
	for i := range p.rows {
		r := &p.rows[i]
		if !r.touched {
			continue
		}
		out = append(out, Row{
			Page:        r.unit << p.shift,
			DRAM:        r.demand[obs.LatDRAM],
			NVM:         r.demand[obs.LatNVM],
			Buf:         r.demand[obs.LatBuf],
			PTE:         r.demand[obs.LatPTE],
			Reads:       r.reads,
			Writes:      r.writes,
			FFReads:     r.ffReads,
			FFWrites:    r.ffWrites,
			WearWrites:  r.wear,
			SwapIns:     r.swapIns,
			SwapOuts:    r.swapOuts,
			InsRegular:  r.insByTrig[obs.TrigRegular],
			InsPCT:      r.insByTrig[obs.TrigPCT],
			InsMMU:      r.insByTrig[obs.TrigMMU],
			InsFollower: r.insByTrig[obs.TrigFollower],
			UnusedIns:   r.unusedIns,
			RoundTrips:  r.roundTrips,
			FlapEvents:  r.flapEvents,
			Resident:    r.res.String(),
			Timeline:    r.timeline,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// RegionShift is the 2MB superpage-extent roll-up granularity.
const RegionShift = 21

// Region aggregates one 2MB extent (512 4KB pages) — the groundwork view
// for sub-page migration schemes: how concentrated is heat inside the
// extent a superpage mapping would pin together?
type Region struct {
	Region       uint64  `json:"region"` // extent base byte address (2MB aligned)
	Pages        uint64  `json:"pages"`  // distinct units touched inside
	Accesses     uint64  `json:"accesses"`
	WearWrites   uint64  `json:"wear_writes"`
	SwapIns      uint64  `json:"swap_ins"`
	SwapOuts     uint64  `json:"swap_outs"`
	FlapEvents   uint64  `json:"flap_events"`
	ResidentDRAM uint64  `json:"resident_dram"`
	HotPage      uint64  `json:"hot_page"`  // hottest unit's base address
	HotShare     float64 `json:"hot_share"` // its share of the extent's accesses
}

// Regions rolls the table up into 2MB extents, sorted by extent address.
func (p *PageMap) Regions() []Region {
	if p == nil {
		return nil
	}
	type regAgg struct {
		Region
		hotCount uint64
	}
	agg := make(map[uint64]*regAgg)
	for i := range p.rows {
		r := &p.rows[i]
		if !r.touched {
			continue
		}
		base := (r.unit << p.shift) >> RegionShift << RegionShift
		g, ok := agg[base]
		if !ok {
			g = &regAgg{Region: Region{Region: base}}
			agg[base] = g
		}
		g.Pages++
		a := r.accesses()
		g.Accesses += a
		g.WearWrites += r.wear
		g.SwapIns += r.swapIns
		g.SwapOuts += r.swapOuts
		g.FlapEvents += r.flapEvents
		if r.res == ResDRAM {
			g.ResidentDRAM++
		}
		hp := r.unit << p.shift
		if a > g.hotCount || (a == g.hotCount && a > 0 && hp < g.HotPage) {
			g.hotCount = a
			g.HotPage = hp
		}
	}
	out := make([]Region, 0, len(agg))
	for _, g := range agg {
		if g.Accesses > 0 {
			g.HotShare = float64(g.hotCount) / float64(g.Accesses)
		}
		out = append(out, g.Region)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// Audit checks the table's internal conservation laws. The headline law:
// per-page swap-ins − swap-outs (plus observation-driven
// reconciliation flips) must equal the page's residency delta. A lifecycle
// event landing on a page already in the claimed state (a double commit, or
// a commit whose matching evict was dropped) breaks the equation, which is
// exactly what the mutation test exploits.
func (p *PageMap) Audit(a *check.Audit) {
	if p == nil {
		return
	}
	for i := range p.rows {
		r := &p.rows[i]
		var trig uint64
		for _, v := range r.insByTrig {
			trig += v
		}
		a.Checkf(trig == r.swapIns,
			"pagemap: page %#x trigger mix %d != swap-ins %d", r.unit<<p.shift, trig, r.swapIns)
		a.Checkf(r.unusedIns <= r.swapIns,
			"pagemap: page %#x unused swap-ins %d > swap-ins %d", r.unit<<p.shift, r.unusedIns, r.swapIns)
		a.Checkf(r.flapEvents <= r.roundTrips,
			"pagemap: page %#x flap events %d > round trips %d", r.unit<<p.shift, r.flapEvents, r.roundTrips)
		var dem uint64
		for _, v := range r.demand {
			dem += v
		}
		a.Checkf(r.reads+r.writes-r.wb == dem,
			"pagemap: page %#x reads %d + writes %d - writebacks %d != demand %d",
			r.unit<<p.shift, r.reads, r.writes, r.wb, dem)
		a.Checkf(r.wb <= r.writes,
			"pagemap: page %#x writebacks %d > writes %d", r.unit<<p.shift, r.wb, r.writes)
		if r.res == ResUnknown || r.resInit == ResUnknown {
			continue
		}
		delta := int64(resVal(r.res)) - int64(resVal(r.resInit))
		moves := int64(r.swapIns) - int64(r.swapOuts) + int64(r.reconIn) - int64(r.reconOut)
		a.Checkf(moves == delta,
			"pagemap: page %#x swap-ins %d - swap-outs %d + recon %d/%d != residency delta %d",
			r.unit<<p.shift, r.swapIns, r.swapOuts, r.reconIn, r.reconOut, delta)
	}
}

func resVal(r Residency) int {
	if r == ResDRAM {
		return 1
	}
	return 0
}

// AuditResidency cross-checks tracked residency against ground truth (the
// manager's live translation) at quiescence, when the swap engine's own
// audit proves no swap is in flight: for every unit whose residency is
// known, the tracked state must match where the translation actually
// points. inDRAM maps a unit base address to its current module. A dropped
// commit or eviction fails here.
func (p *PageMap) AuditResidency(a *check.Audit, inDRAM func(addr uint64) bool) {
	if p == nil || inDRAM == nil {
		return
	}
	for i := range p.rows {
		r := &p.rows[i]
		if r.res == ResUnknown {
			continue
		}
		want := ResNVM
		if inDRAM(r.unit << p.shift) {
			want = ResDRAM
		}
		a.Checkf(r.res == want,
			"pagemap: page %#x tracked %v but translation says %v",
			r.unit<<p.shift, r.res, want)
	}
}
