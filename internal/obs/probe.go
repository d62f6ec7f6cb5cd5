package obs

// Trigger classifies what caused a swap to be requested.
type Trigger int

// The trigger taxonomy. Follower is orthogonal to the paper's swap-kind
// accounting (a follower inherits its leader's kind in core.Stats); the
// observers separate it so follower usefulness is measurable on its own.
const (
	TrigRegular  Trigger = iota // hot-page threshold (regular swap)
	TrigPCT                     // PCT-correlation prefetch swap
	TrigMMU                     // MMU hint at final-PTE computation
	TrigFollower                // follower of a correlated leader swap
	NumTriggers
)

// String names the trigger for reports.
func (t Trigger) String() string {
	switch t {
	case TrigRegular:
		return "regular"
	case TrigPCT:
		return "pct"
	case TrigMMU:
		return "mmu"
	case TrigFollower:
		return "follower"
	}
	return "?"
}

// Swap is one swap's identity. The scheme that starts the swap fills in
// Trigger, Request, HintPath and Label; the swap engine stamps the
// addresses from the swap's units and the second group of fields when it
// accepts the swap, before any subscriber sees it, and counts NVMWrites
// as the swap runs. Addresses are OS-visible physical byte addresses,
// the data-identity key every scheme swaps by.
type Swap struct {
	Addr      uint64 // the data the swap brings into DRAM
	Victim    uint64 // the data it displaces, when HasVictim
	HasVictim bool
	Trigger   Trigger
	Request   uint64 // cycle the swap was requested (a queued request's enqueue cycle)
	// HintPath marks a swap the MMU-hint evaluation requested (its page
	// or that page's correlated follower); the tracer draws its causality
	// arrow from the page's latest hint.
	HintPath bool
	Label    string // names the transfer span in traces ("swap" when empty)

	ID         uint64 // 1-based acceptance order across the run
	Start      uint64 // cycle the engine accepted the op
	Slot       int    // trace track: acceptance order modulo the engine's op capacity
	StageCount int
	BytesDRAM  uint64 // transfer bytes on the DRAM module (reads by source, writes by destination)
	BytesNVM   uint64
	NVMWrites  uint64 // line-writes to the NVM module so far (counted only while a probe is attached)
}

// Probe subscribes to the swap-lifecycle event stream: the accesses that
// reach the memory controller, MMU hints, and every swap from request to
// settlement. The controller reports accesses and hints; the swap engine,
// and only the engine, reports a swap's start, stages, commit and
// settlement, once per op and under one engine-assigned ID. A scheme
// reports only its own queue (SwapRequested, SwapQueued). Subscribers must
// not schedule events or perturb simulated state, so Results are identical
// with any set of subscribers attached.
//
// Ordering: SwapStarted follows the engine's acceptance (a refused op
// produces no event); SwapStage fires as each stage's last transfer
// completes; SwapCommitted — the remap commit plus the victim's eviction —
// reaches every subscriber before the scheme's completion callback runs,
// since that callback may start a new swap on the evicted unit; and
// SwapSettled follows the callback, when the scheme's tables reflect the
// commit.
type Probe interface {
	// Hint: an MMU hint for the page at addr, computed at cycle (final-PTE
	// computation) and delivered at now by core for virtual page vpn.
	Hint(addr, cycle, now uint64, core int, vpn uint64)
	// Demand: a demand access served from src. LatPTE marks a page-walk
	// read the MMU Driver's PTE cache intercepted; every other source is a
	// data demand.
	Demand(addr uint64, write bool, src LatSource, now uint64)
	// Writeback: a dirty line written to memory, landing in DRAM or NVM.
	Writeback(addr uint64, toDRAM bool, now uint64)
	// Functional: a fast-forward access, with the module it resolved to.
	Functional(addr uint64, write, inDRAM bool, now uint64)
	// SwapRequested: a scheme's swap queue took a request of kind.
	SwapRequested(addr uint64, kind string, now uint64)
	// SwapQueued: a queued request of kind, enqueued at enq, left the queue
	// for the engine at now.
	SwapQueued(addr uint64, kind string, enq, now uint64)
	// SwapStarted: the engine accepted s.
	SwapStarted(s *Swap)
	// SwapStage: stage of s ran from began to now, moving lines lines.
	SwapStage(s *Swap, stage int, began, now, lines uint64)
	// SwapCommitted: s's remap is visible and its victim left DRAM.
	SwapCommitted(s *Swap, now uint64)
	// SwapSettled: the scheme's completion callback for a swap has run.
	SwapSettled(now uint64)
}

// NopProbe ignores every event. Subscribers embed it and override the
// events they consume.
type NopProbe struct{}

func (NopProbe) Hint(addr, cycle, now uint64, core int, vpn uint64)        {}
func (NopProbe) Demand(addr uint64, write bool, src LatSource, now uint64) {}
func (NopProbe) Writeback(addr uint64, toDRAM bool, now uint64)            {}
func (NopProbe) Functional(addr uint64, write, inDRAM bool, now uint64)    {}
func (NopProbe) SwapRequested(addr uint64, kind string, now uint64)        {}
func (NopProbe) SwapQueued(addr uint64, kind string, enq, now uint64)      {}
func (NopProbe) SwapStarted(s *Swap)                                       {}
func (NopProbe) SwapStage(s *Swap, stage int, began, now, lines uint64)    {}
func (NopProbe) SwapCommitted(s *Swap, now uint64)                         {}
func (NopProbe) SwapSettled(now uint64)                                    {}

// Probes fans each event out to its subscribers in attach order. A nil
// Probes is the disabled stream: every event is a no-op that allocates
// nothing.
type Probes []Probe

func (ps Probes) Hint(addr, cycle, now uint64, core int, vpn uint64) {
	for _, p := range ps {
		p.Hint(addr, cycle, now, core, vpn)
	}
}

func (ps Probes) Demand(addr uint64, write bool, src LatSource, now uint64) {
	for _, p := range ps {
		p.Demand(addr, write, src, now)
	}
}

func (ps Probes) Writeback(addr uint64, toDRAM bool, now uint64) {
	for _, p := range ps {
		p.Writeback(addr, toDRAM, now)
	}
}

func (ps Probes) Functional(addr uint64, write, inDRAM bool, now uint64) {
	for _, p := range ps {
		p.Functional(addr, write, inDRAM, now)
	}
}

func (ps Probes) SwapRequested(addr uint64, kind string, now uint64) {
	for _, p := range ps {
		p.SwapRequested(addr, kind, now)
	}
}

func (ps Probes) SwapQueued(addr uint64, kind string, enq, now uint64) {
	for _, p := range ps {
		p.SwapQueued(addr, kind, enq, now)
	}
}

func (ps Probes) SwapStarted(s *Swap) {
	for _, p := range ps {
		p.SwapStarted(s)
	}
}

func (ps Probes) SwapStage(s *Swap, stage int, began, now, lines uint64) {
	for _, p := range ps {
		p.SwapStage(s, stage, began, now, lines)
	}
}

func (ps Probes) SwapCommitted(s *Swap, now uint64) {
	for _, p := range ps {
		p.SwapCommitted(s, now)
	}
}

func (ps Probes) SwapSettled(now uint64) {
	for _, p := range ps {
		p.SwapSettled(now)
	}
}
