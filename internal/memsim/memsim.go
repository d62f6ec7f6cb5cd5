// Package memsim is a DRAMSim2-flavoured memory timing model: channels,
// ranks, banks, row buffers, and a FR-FCFS scheduler, parameterised with the
// DRAM and NVM timings from Table I of the PageSeer paper.
//
// All requests are cache-line (64B) granularity. Latency comes from three
// sources, exactly the ones the paper's evaluation depends on:
//
//   - row-buffer state: a row hit pays tCAS; a closed bank pays tRCD+tCAS;
//     a conflict pays tRP+tRCD+tCAS (NVM's tRCD=58 is where its high read
//     latency lives, and tWR=180 is where its write cost lives);
//   - bank-level parallelism: each bank tracks its own readiness, so
//     accesses to different banks overlap;
//   - channel bandwidth: one 64B burst occupies the channel data bus for
//     BurstCycles, so demand traffic and page-swap traffic contend.
//
// Timing parameters are given in memory-clock cycles (1GHz in the paper)
// and converted to CPU cycles (2GHz) with ClockRatio at construction.
package memsim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs/attrib"
)

// Timing holds per-command latencies in memory-clock cycles.
type Timing struct {
	TCAS uint64 // column access (read latency from open row)
	TRCD uint64 // row activate to column command
	TRAS uint64 // row activate to precharge
	TRP  uint64 // precharge
	TWR  uint64 // write recovery (data end to precharge)
}

// Config describes one memory module (a DRAM or NVM part).
type Config struct {
	Name            string
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowBytes        uint64 // row-buffer size per bank
	Timing          Timing
	ClockRatio      uint64 // CPU cycles per memory cycle (2 for 2GHz CPU / 1GHz bus)
	BurstMemCycles  uint64 // data-bus occupancy of one 64B line, in memory cycles
	// MaxBypass bounds FR-FCFS reordering: a request can be overtaken by
	// row hits at most this many times before it becomes highest priority.
	MaxBypass int
	// SwapAgeLimit promotes a background (swap-priority) request to the
	// middle scheduling class once it has waited this many CPU cycles,
	// bounding migration starvation under heavy demand traffic
	// (0 disables aging).
	SwapAgeLimit uint64
	// ClasslessEvery reserves every Nth commit slot for pure
	// first-ready-first-come scheduling regardless of class, guaranteeing
	// background traffic a bounded bandwidth share even under continuous
	// demand (0 disables the reservation).
	ClasslessEvery uint64
	// Blame is the cycle-accounting component this module's service time is
	// charged to (CompDRAM / CompNVM) when a request carries a blame vector.
	Blame attrib.Component
}

// DRAMConfig returns the paper's DRAM part (Table I): 4 channels, 1 rank,
// 8 banks, 11-11-28 with tRP=11, tWR=12.
func DRAMConfig() Config {
	return Config{
		Name:            "DRAM",
		Channels:        4,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowBytes:        8192,
		Timing:          Timing{TCAS: 11, TRCD: 11, TRAS: 28, TRP: 11, TWR: 12},
		ClockRatio:      2,
		BurstMemCycles:  4, // 64B over a 64-bit DDR bus at 1GHz
		MaxBypass:       3,
		SwapAgeLimit:    400,
		ClasslessEvery:  6,
		Blame:           attrib.CompDRAM,
	}
}

// NVMConfig returns the paper's NVM part (Table I): 2 channels, 2 ranks,
// 8 banks, 11-58-80 with tRP=11, tWR=180, refresh disabled.
func NVMConfig() Config {
	return Config{
		Name:            "NVM",
		Channels:        2,
		RanksPerChannel: 2,
		BanksPerRank:    8,
		RowBytes:        8192,
		Timing:          Timing{TCAS: 11, TRCD: 58, TRAS: 80, TRP: 11, TWR: 180},
		ClockRatio:      2,
		BurstMemCycles:  4,
		MaxBypass:       3,
		SwapAgeLimit:    400,
		ClasslessEvery:  6,
		Blame:           attrib.CompNVM,
	}
}

// Priority orders request classes at the scheduler. Demand misses always
// beat background swap traffic so page migration cannot starve the program.
type Priority int

const (
	// PrioDemand is for processor demand misses and page-walk reads.
	PrioDemand Priority = iota
	// PrioSwap is for page-swap and metadata background traffic.
	PrioSwap
)

// Request is one line-granularity access. Records are pooled per module
// with a pre-bound completion closure (fireFn), so the enqueue -> issue ->
// data-return lifecycle allocates nothing in steady state.
type request struct {
	addr    mem.Addr
	write   bool
	prio    Priority
	arrival uint64
	seq     uint64 // per-channel enqueue order
	bypass  int
	done    func()
	fireFn  func()

	// Cycle accounting (nil/zero when the request carries no blame vector):
	// swapBusyAt snapshots the channel's cumulative swap-bus occupancy at
	// arrival; issue() turns it into queueWait/swapShare, and completeReq
	// stamps the split onto v.
	v          *attrib.Vector
	swapBusyAt uint64
	queueWait  uint64
	swapShare  uint64
}

type bank struct {
	openRow      int64 // -1 when closed
	nextReady    uint64
	earliestPre  uint64 // tRAS / tWR constraint on the next precharge
	rowHits      uint64
	rowMisses    uint64
	rowConflicts uint64
}

// entry is one queued request with its bank and row decoded at enqueue and
// held inline, so a pick's scan reads one contiguous slice.
type entry struct {
	row  int64
	bank int
	r    *request
}

type channel struct {
	banks   []bank
	busFree uint64
	// opened is set by the channel's first commit; rows never close, so
	// from then on some bank is open (see floor).
	opened bool
	// demand and swap hold the queued requests of each class in enqueue
	// (seq) order; Promote moves a swap request into demand at its seq.
	demand, swap []entry
	seq          uint64
	// wakeAt is the cycle of the earliest pending scheduler wakeup
	// (0 = none).
	wakeAt uint64
	// commits counts issued requests, for the periodic classless slot.
	commits uint64
	// wakeFn is the scheduler-wakeup closure, bound once per channel so
	// arming a wakeup does not allocate.
	wakeFn func()
	// swapBusy is the cumulative data-bus occupancy of swap-priority
	// traffic on this channel, in CPU cycles. Monotone (never reset): the
	// cycle-accounting layer diffs it across a demand request's wait to
	// measure swap-transfer interference.
	swapBusy uint64
}

// Stats aggregates module-level counters.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	// TotalWait is the sum over requests of (completion - arrival), in CPU
	// cycles. TotalWait/ (Reads+Writes) is this module's average latency.
	TotalWait uint64
	// BusBusy is the total CPU cycles of data-bus occupancy, summed across
	// channels (for bandwidth-utilisation estimates).
	BusBusy uint64
}

// Add accumulates o into s. Keep it exhaustive: the reflection test in
// internal/sim pins that every numeric field survives aggregation.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.RowConflicts += o.RowConflicts
	s.TotalWait += o.TotalWait
	s.BusBusy += o.BusBusy
}

// Module simulates one memory part (the DRAM or the NVM of the hybrid pair).
type Module struct {
	sim  *engine.Sim
	cfg  Config
	base mem.Addr
	size uint64

	chans   []channel
	stats   Stats
	reqPool mem.Pool[request]

	// derived, in CPU cycles
	tCAS, tRCD, tRAS, tRP, tWR, burst uint64
	banksPerChannel                   int
	// line-address bit fields, low to high: channel, column, bank, row
	chBits, colBits, bankBits int
}

// New creates a module covering physical range [base, base+size).
func New(sim *engine.Sim, cfg Config, base mem.Addr, size uint64) *Module {
	if cfg.Channels <= 0 || cfg.BanksPerRank <= 0 || cfg.RanksPerChannel <= 0 {
		panic("memsim: invalid geometry")
	}
	banks, lines := uint64(cfg.BanksPerRank*cfg.RanksPerChannel), cfg.RowBytes/mem.LineSize
	if !pow2(uint64(cfg.Channels)) || !pow2(banks) || !pow2(lines) {
		panic(fmt.Sprintf("memsim(%s): geometry must be powers of two (%d channels, %d banks/channel, %d lines/row)",
			cfg.Name, cfg.Channels, banks, lines))
	}
	if cfg.ClockRatio == 0 {
		cfg.ClockRatio = 1
	}
	m := &Module{
		sim:             sim,
		cfg:             cfg,
		base:            base,
		size:            size,
		tCAS:            cfg.Timing.TCAS * cfg.ClockRatio,
		tRCD:            cfg.Timing.TRCD * cfg.ClockRatio,
		tRAS:            cfg.Timing.TRAS * cfg.ClockRatio,
		tRP:             cfg.Timing.TRP * cfg.ClockRatio,
		tWR:             cfg.Timing.TWR * cfg.ClockRatio,
		burst:           cfg.BurstMemCycles * cfg.ClockRatio,
		banksPerChannel: int(banks),
		chBits:          bits.TrailingZeros64(uint64(cfg.Channels)),
		colBits:         bits.TrailingZeros64(lines),
		bankBits:        bits.TrailingZeros64(banks),
	}
	m.chans = make([]channel, cfg.Channels)
	for i := range m.chans {
		ch := i
		m.chans[i].banks = make([]bank, m.banksPerChannel)
		for b := range m.chans[i].banks {
			m.chans[i].banks[b].openRow = -1
		}
		m.chans[i].wakeFn = func() {
			m.chans[ch].wakeAt = 0
			m.trySchedule(ch)
		}
	}
	return m
}

func pow2(n uint64) bool { return n != 0 && n&(n-1) == 0 }

func (m *Module) getReq() *request {
	r := m.reqPool.Get()
	if r == nil {
		r = &request{}
		r.fireFn = func() { m.completeReq(r) }
	}
	return r
}

func (m *Module) putReq(r *request) {
	r.addr, r.write, r.prio, r.arrival, r.bypass, r.done = 0, false, 0, 0, 0, nil
	r.v, r.swapBusyAt, r.queueWait, r.swapShare = nil, 0, 0, 0
	m.reqPool.Put(r)
}

// completeReq fires at a request's data-return time: the record returns to
// the pool before the callback runs, so the callback may immediately
// enqueue a new access that reuses it. The blame stamps split the measured
// wait three ways — swap-transfer interference, generic queue/bank wait,
// and device service (command path + data burst) — so the telescoping sum
// covers arrival to data end exactly.
func (m *Module) completeReq(r *request) {
	done, v, queueWait, swapShare := r.done, r.v, r.queueWait, r.swapShare
	m.putReq(r)
	if v != nil {
		v.AddUpTo(attrib.CompSwapXfer, swapShare)
		v.AddUpTo(attrib.CompMemQ, queueWait-swapShare)
		v.Take(m.cfg.Blame, m.sim.Now())
	}
	if done != nil {
		done()
	}
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// Stats returns a snapshot of the module counters.
func (m *Module) Stats() Stats {
	s := m.stats
	for i := range m.chans {
		for b := range m.chans[i].banks {
			bk := &m.chans[i].banks[b]
			s.RowHits += bk.rowHits
			s.RowMisses += bk.rowMisses
			s.RowConflicts += bk.rowConflicts
		}
	}
	return s
}

// Contains reports whether addr belongs to this module.
func (m *Module) Contains(addr mem.Addr) bool {
	return addr >= m.base && uint64(addr-m.base) < m.size
}

// locate maps a line address to (channel, bank, row). Lines interleave
// across channels first (for bandwidth), then columns fill a row, then rows
// interleave across banks. Every field is a power of two (New checks), so
// decoding is shifts and masks.
func (m *Module) locate(addr mem.Addr) (ch, bk int, row int64) {
	if !m.Contains(addr) {
		panic(fmt.Sprintf("memsim(%s): address %#x outside module", m.cfg.Name, uint64(addr)))
	}
	line := uint64(addr-m.base) >> mem.LineShift
	rowLocal := line >> (m.chBits + m.colBits)
	return int(line & (1<<m.chBits - 1)), int(rowLocal & (1<<m.bankBits - 1)), int64(rowLocal >> m.bankBits)
}

// BusBusy returns cumulative data-bus occupancy in CPU cycles summed over
// channels; successive deltas divided by (elapsed x Channels) give the
// module's bandwidth utilization.
func (m *Module) BusBusy() uint64 { return m.stats.BusBusy }

// Channels returns the channel count.
func (m *Module) Channels() int { return m.cfg.Channels }

func (c *channel) queued() int { return len(c.demand) + len(c.swap) }

// QueueOccupancy returns the total queued requests across channels — the
// timeline sampler's congestion probe (cheap, no allocation).
func (m *Module) QueueOccupancy() int {
	var n int
	for i := range m.chans {
		n += m.chans[i].queued()
	}
	return n
}

// Backlog returns the total number of queued requests across channels plus
// how far ahead of now the busiest data bus is committed, a cheap proxy for
// bandwidth saturation used by the Swap Driver heuristic.
func (m *Module) Backlog() (queued int, busAhead uint64) {
	now := m.sim.Now()
	for i := range m.chans {
		queued += m.chans[i].queued()
		if m.chans[i].busFree > now && m.chans[i].busFree-now > busAhead {
			busAhead = m.chans[i].busFree - now
		}
	}
	return queued, busAhead
}

// Audit reports end-of-run invariant violations: a quiesced module has empty
// channel queues and every pooled request record back in its pool.
func (m *Module) Audit(a *check.Audit) {
	a.Checkf(m.QueueOccupancy() == 0,
		"memsim %s: %d request(s) still queued at quiescence", m.cfg.Name, m.QueueOccupancy())
	a.Checkf(m.reqPool.Live() == 0,
		"memsim %s: %d pooled request record(s) never completed", m.cfg.Name, m.reqPool.Live())
}

// Access enqueues a line access. done runs at completion time (may be nil).
// v is the blame vector of the demand request riding the access, nil when
// attribution is off or the access serves none: completion stamps the
// queue-wait / swap-interference / service split onto it.
func (m *Module) Access(addr mem.Addr, write bool, prio Priority, v *attrib.Vector, done func()) {
	ch, bk, row := m.locate(mem.LineOf(addr))
	c := &m.chans[ch]
	r := m.getReq()
	r.addr = mem.LineOf(addr)
	r.write = write
	r.prio = prio
	r.arrival = m.sim.Now()
	r.seq = c.seq
	c.seq++
	r.done = done
	r.v = v
	r.swapBusyAt = c.swapBusy
	if prio == PrioSwap {
		c.swap = append(c.swap, entry{row, bk, r})
	} else {
		c.demand = append(c.demand, entry{row, bk, r})
	}
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	m.trySchedule(ch)
}

// floor returns the lowest data-burst start any request could get from a
// commit at now: the minimum of start over every bank and row. A bank's
// nextReady is the start of its last burst, which never exceeds busFree,
// the end of the channel's last burst; so an open bank's lowest start is a
// row hit at max(now+tCAS, busFree) and a closed bank's is
// max(now+tRCD+tCAS, busFree). Rows never close, so the floor is the first
// from the channel's first commit on and the second before it.
func (m *Module) floor(c *channel, now uint64) uint64 {
	lat := m.tCAS
	if !c.opened {
		lat += m.tRCD
	}
	return max(now+lat, c.busFree)
}

// start is the earliest cycle e's data burst can start from a commit at
// now. Command latencies overlap with bus occupancy (commands pipeline on
// the command bus), so back-to-back row hits stream at full bus rate: their
// tCAS only shows when the bus is otherwise idle.
func (m *Module) start(c *channel, e entry, now uint64) uint64 {
	bk := &c.banks[e.bank]
	ready := max(bk.nextReady, c.busFree)
	switch bk.openRow {
	case e.row:
		return max(now+m.tCAS, ready)
	case -1:
		return max(now+m.tRCD+m.tCAS, ready)
	}
	return max(max(now, bk.earliestPre)+m.tRP+m.tRCD+m.tCAS, ready)
}

// pick chooses the next request: best priority class first; within a class,
// the earliest feasible data-bus slot (which favours ready banks and row
// hits, the essence of FR-FCFS without head-of-line blocking); ties go to
// the oldest. A starving oldest request (bypassed more than MaxBypass
// times) becomes mandatory. It returns the chosen request's list and index.
//
// Both lists are in enqueue order, and arrival times never decrease with
// it, so the oldest request heads one of them and the aged swap requests
// form a prefix of c.swap. The class is therefore settled before any scan,
// and the scan stops at the first request that reaches the floor start.
func (m *Module) pick(c *channel, now uint64) (q *[]entry, idx int, start uint64) {
	q = &c.demand
	if len(c.demand) == 0 || (len(c.swap) > 0 && c.swap[0].r.seq < c.demand[0].r.seq) {
		q = &c.swap
	}
	oldest := (*q)[0]
	if oldest.r.bypass >= m.cfg.MaxBypass {
		// Force the starving oldest request — unless its bank is genuinely
		// unready (write recovery / precharge constraints push its start
		// beyond even a worst-case row conflict on an idle bank); idling
		// the bus behind such a bank would reintroduce head-of-line
		// blocking through the fairness path.
		bound := now + m.tRP + m.tRCD + m.tCAS + 2*m.burst
		if c.busFree > now {
			bound += c.busFree - now
		}
		if s := m.start(c, oldest, now); s <= bound {
			return q, 0, s
		}
	}
	// Three effective classes: demand beats aged background beats fresh
	// background. Aging bounds a migration line's wait without letting
	// stale swap bursts block fresh demand outright. Every ClasslessEvery-th
	// commit slot inverts the order, so queued background traffic is
	// guaranteed a bounded share of the bus even under continuous
	// row-hitting demand.
	aged := 0
	if lim := m.cfg.SwapAgeLimit; lim != 0 {
		aged = sort.Search(len(c.swap), func(i int) bool { return now-c.swap[i].r.arrival <= lim })
	}
	type span struct {
		q      *[]entry
		lo, hi int
	}
	classes := [3]span{{&c.demand, 0, len(c.demand)}, {&c.swap, 0, aged}, {&c.swap, aged, len(c.swap)}}
	if m.cfg.ClasslessEvery != 0 && c.commits%m.cfg.ClasslessEvery == m.cfg.ClasslessEvery-1 {
		classes[0], classes[2] = classes[2], classes[0]
	}
	k := 0
	for classes[k].lo == classes[k].hi {
		k++
	}
	sp := classes[k]
	floor := m.floor(c, now)
	idx = -1
	for i, e := range (*sp.q)[sp.lo:sp.hi] {
		if s := m.start(c, e, now); idx == -1 || s < start {
			idx, start = sp.lo+i, s
			if s == floor {
				break // no later request can start earlier
			}
		}
	}
	if (*sp.q)[idx].r != oldest.r {
		oldest.r.bypass++
	}
	return sp.q, idx, start
}

// trySchedule commits the best queued request once the data bus has caught
// up with the previous commitment, then arms a wakeup at the new busFree.
// Committing only the minimum-dataStart request keeps the bus from being
// reserved behind a slow bank (no head-of-line blocking), while the
// one-commitment-ahead rule keeps the scheduler adaptive to new arrivals.
func (m *Module) trySchedule(ch int) {
	c := &m.chans[ch]
	if c.queued() == 0 {
		return
	}
	now := m.sim.Now()
	// Commit the next request tCAS before the bus frees so a row hit's
	// data burst packs immediately behind the previous one.
	if c.busFree > now+m.tCAS {
		m.armWake(c, ch, c.busFree-m.tCAS)
		return
	}
	q, i, start := m.pick(c, now)
	e := (*q)[i]
	*q = slices.Delete(*q, i, i+1) // clears the vacated tail slot
	c.commits++
	m.issue(ch, e, start)
	if c.queued() > 0 {
		m.armWake(c, ch, c.busFree)
	}
}

func (m *Module) armWake(c *channel, ch int, at uint64) {
	if c.wakeAt != 0 && at >= c.wakeAt {
		return
	}
	c.wakeAt = at
	m.sim.At(at, c.wakeFn)
}

// issue commits one queued request at its data-burst start time.
func (m *Module) issue(ch int, e entry, dataStart uint64) {
	c := &m.chans[ch]
	bk := &c.banks[e.bank]
	r := e.r

	var cmdLat uint64
	switch {
	case bk.openRow == e.row:
		bk.rowHits++
		cmdLat = m.tCAS
	case bk.openRow == -1:
		bk.rowMisses++
		bk.earliestPre = dataStart - m.tCAS + m.tRAS
		cmdLat = m.tRCD + m.tCAS
	default:
		bk.rowConflicts++
		bk.earliestPre = dataStart - m.tCAS + m.tRAS
		cmdLat = m.tRP + m.tRCD + m.tCAS
	}

	dataEnd := dataStart + m.burst
	c.busFree = dataEnd
	m.stats.BusBusy += m.burst

	if r.v != nil {
		// Blame split: the command path (row state at issue) plus the data
		// burst is device service; everything else the request waited is
		// queueing, of which up to the concurrent growth in swap-bus
		// occupancy is swap-transfer interference. The start bounds come
		// from the same bank state, so service never exceeds the measured
		// wait.
		r.queueWait = (dataEnd - r.arrival) - (cmdLat + m.burst)
		if r.swapShare = c.swapBusy - r.swapBusyAt; r.swapShare > r.queueWait {
			r.swapShare = r.queueWait
		}
	}
	if r.prio == PrioSwap {
		c.swapBusy += m.burst
	}

	bk.openRow = e.row
	c.opened = true
	// The next column command to this bank can pipeline behind this one.
	bk.nextReady = dataStart
	if r.write {
		// Write recovery: the row cannot be closed until tWR after the
		// data, so a row conflict after writes pays the full tWR (NVM's
		// 180-cycle tWR is where its write cost bites). Same-row writes
		// keep streaming at bus rate.
		if end := dataEnd + m.tWR; end > bk.earliestPre {
			bk.earliestPre = end
		}
	}

	m.stats.TotalWait += dataEnd - r.arrival
	m.sim.At(dataEnd, r.fireFn)
}

// Promote raises a queued request for the given line to demand priority —
// the controller calls this when a processor request is waiting on a swap
// read (requested-line-first, Section III-D1).
func (m *Module) Promote(addr mem.Addr) {
	line := mem.LineOf(addr)
	ch, _, _ := m.locate(line)
	c := &m.chans[ch]
	for i := 0; i < len(c.swap); {
		e := c.swap[i]
		if e.r.addr != line {
			i++
			continue
		}
		e.r.prio = PrioDemand
		c.swap = slices.Delete(c.swap, i, i+1)
		at, _ := slices.BinarySearchFunc(c.demand, e.r.seq, func(d entry, seq uint64) int { return cmp.Compare(d.r.seq, seq) })
		c.demand = slices.Insert(c.demand, at, e)
	}
}

// IdleLatency returns the no-contention read latency of this module in CPU
// cycles (closed bank: tRCD+tCAS+burst). Useful for tests and sanity checks.
func (m *Module) IdleLatency() uint64 { return m.tRCD + m.tCAS + m.burst }

// ResetStats zeroes all counters (e.g. after warm-up) without touching
// timing state.
func (m *Module) ResetStats() {
	m.stats = Stats{}
	for i := range m.chans {
		for b := range m.chans[i].banks {
			bk := &m.chans[i].banks[b]
			bk.rowHits, bk.rowMisses, bk.rowConflicts = 0, 0, 0
		}
	}
}
