// Package attrib is the cycle-accounting attribution layer: an
// always-compiled, off-by-default profiler that answers "where did the
// time go" for every demand memory request. Each request carries a compact
// fixed-size blame vector; the pipeline stages it passes through (core
// issue, TLB lookup, page walk, cache tag lookups, MSHR waits, remap and
// metadata fetches, memory queueing, DRAM/NVM service, swap-buffer hits,
// swap-transfer interference) stamp interval boundaries on the vector, and
// at retire the vector folds into per-core x per-trigger-class CPI-stack
// accumulators.
//
// The accounting is a telescoping sum: Begin pins the start cycle, every
// stamp charges the cycles since the previous stamp to one component, so
// component cycles always sum to (last stamp - begin). Whatever remains
// between the final stamp and retire is counted Unattributed — the audit
// requires it to be exactly zero, which is how a mis-stamped stage is
// caught (see Audit and the sim-level mutation test).
//
// Trigger classes reuse the obs swap-trigger taxonomy: a demand
// request landing on a swapped-in unit is classified by what triggered
// that swap (regular HPT, PCT prefetch, MMU hint, follower), so a
// hint-prefetched DRAM hit is separable from a regular DRAM hit.
//
// Cost discipline matches the rest of internal/obs: every method is
// nil-safe, so a simulator built without attribution pays one nil check
// per stamp site and zero allocations (pinned by TestZeroAllocDisabledAttrib,
// part of the Makefile allocguard gate). Vectors are embedded in the pooled
// continuation records, so even an attribution-on run allocates nothing per
// request. A run is single-threaded, so the per-core accumulators need no
// locking.
package attrib

import (
	"pageseer/internal/check"
	"pageseer/internal/obs"
)

// Component tags one slice of a request's end-to-end latency.
type Component int

// The blame components. CompCore is the ideal-core base (one cycle per
// retired instruction, filled at collect time, excluded from the
// per-request conservation law); every other component is charged from
// stamped request intervals.
const (
	CompCore     Component = iota // ideal-core base: 1 cycle / instruction
	CompL1                        // L1 tag lookup + hit service
	CompL2                        // L2 tag lookup + hit service
	CompL3                        // shared L3 tag lookup + hit service
	CompMSHR                      // wait merged behind an in-flight miss
	CompTLB                       // L1/L2 TLB lookup latency
	CompWalk                      // page walk: walker queue, PWC, PTE reads
	CompPTECache                  // HMC PTE-cache service (PageSeer)
	CompMeta                      // metadata line fetch (PRT/PCT/SRC miss)
	CompRemap                     // remap-entry probe on the critical path
	CompMemQ                      // HMC memory queue + bank/bus wait
	CompSwapXfer                  // interference: wait behind swap transfers
	CompSwapBuf                   // swap-buffer hit service
	CompDRAM                      // DRAM data burst service
	CompNVM                       // NVM data burst service
	NumComponents
)

// String names the component for reports and metrics labels.
func (c Component) String() string {
	switch c {
	case CompCore:
		return "core"
	case CompL1:
		return "l1"
	case CompL2:
		return "l2"
	case CompL3:
		return "l3"
	case CompMSHR:
		return "mshr"
	case CompTLB:
		return "tlb"
	case CompWalk:
		return "walk"
	case CompPTECache:
		return "pte-cache"
	case CompMeta:
		return "meta-fetch"
	case CompRemap:
		return "remap"
	case CompMemQ:
		return "mem-queue"
	case CompSwapXfer:
		return "swap-xfer"
	case CompSwapBuf:
		return "swap-buf"
	case CompDRAM:
		return "dram"
	case CompNVM:
		return "nvm"
	}
	return "?"
}

// Class buckets a retired request by the provenance of the data it hit:
// ClassNone for data the swap machinery never moved (cache hits and
// accesses to wherever the OS placed the page), and one class per swap
// trigger for demand hits on swapped-in units.
type Class int

// The trigger classes. ClassRegular..ClassFollower mirror
// obs.TrigRegular..TrigFollower shifted by one.
const (
	ClassNone Class = iota
	ClassRegular
	ClassPCT
	ClassMMU
	ClassFollower
	NumClasses
)

// ClassOf maps a swap-provenance lookup to a class.
func ClassOf(tr obs.Trigger, ok bool) Class {
	if !ok {
		return ClassNone
	}
	return Class(tr) + 1
}

// String names the class for reports and metrics labels.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "unswapped"
	case ClassRegular:
		return "regular"
	case ClassPCT:
		return "pct"
	case ClassMMU:
		return "mmu"
	case ClassFollower:
		return "follower"
	}
	return "?"
}

// Vector is one request's blame vector: component-tagged cycle counters
// plus the telescoping stamp state. It is embedded by value in the pooled
// continuation records; a nil *Vector is the disabled state and every
// method no-ops on it. Each demand-path layer has one entry point that
// takes the vector (mmu.MMU.Translate, cache.Meta.V, hmc.MetaCache.Access,
// memsim.Module.Access); callers pass nil when attribution is off or the
// access serves no demand request.
type Vector struct {
	counts [NumComponents]uint64
	begin  uint64 // cycle the request issued (Begin)
	last   uint64 // cycle of the most recent stamp
	walk   bool   // page-walk redirect: charge everything to CompWalk
	class  Class
}

// Begin (re)arms the vector at a request's issue cycle.
func (v *Vector) Begin(now uint64) {
	if v == nil {
		return
	}
	v.counts = [NumComponents]uint64{}
	v.begin, v.last = now, now
	v.walk = false
	v.class = ClassNone
}

// Take charges the cycles since the previous stamp to c and advances the
// stamp to now. During a page walk every charge redirects to CompWalk
// (the walk's cache and memory traffic is walk time, not data-path time);
// use TakePTE for the one component that must stay separable.
func (v *Vector) Take(c Component, now uint64) {
	if v == nil {
		return
	}
	if v.walk {
		c = CompWalk
	}
	if now > v.last {
		v.counts[c] += now - v.last
		v.last = now
	}
}

// AddUpTo charges exactly n cycles of the pending interval to c, advancing
// the stamp by n: the caller splits one measured wait across components.
func (v *Vector) AddUpTo(c Component, n uint64) {
	if v == nil || n == 0 {
		return
	}
	if v.walk {
		c = CompWalk
	}
	v.counts[c] += n
	v.last += n
}

// TakePTE charges the interval to CompPTECache, bypassing the page-walk
// redirect: PTE-cache service happens during walks by construction, and
// the whole point of the component is to keep it separable from generic
// walk time.
func (v *Vector) TakePTE(now uint64) {
	if v == nil {
		return
	}
	if now > v.last {
		v.counts[CompPTECache] += now - v.last
		v.last = now
	}
}

// SetWalk switches the page-walk redirect on or off.
func (v *Vector) SetWalk(on bool) {
	if v != nil {
		v.walk = on
	}
}

// SetClass records the trigger class resolved at the HMC (the only stage
// that can see swap provenance).
func (v *Vector) SetClass(c Class) {
	if v != nil {
		v.class = c
	}
}

// Stack is one CPI-stack cell: how many requests retired in a (core,
// class) bucket, their summed end-to-end latency, and its decomposition.
type Stack struct {
	Requests uint64
	Latency  uint64
	Comp     [NumComponents]uint64
}

// add merges o into s.
func (s *Stack) add(o Stack) {
	s.Requests += o.Requests
	s.Latency += o.Latency
	for c := range s.Comp {
		s.Comp[c] += o.Comp[c]
	}
}

// CoreAcc is one core's accumulator: a stack per trigger class plus the
// residual counter the audit pins to zero.
type CoreAcc struct {
	Class [NumClasses]Stack
	// Unattributed counts cycles between a request's final stamp and its
	// retire — always zero when every stage stamps correctly.
	Unattributed uint64
}

// Attrib owns the per-run accumulators. A nil *Attrib is the disabled
// state: every method is a nil-guarded no-op.
type Attrib struct {
	percore []CoreAcc

	// Machinery counters: attribution of work that is off the demand
	// critical path and therefore outside the conservation law. Only the
	// PageSeer correlation evaluator reports here today.
	corrEvalCycles uint64
	corrEvals      uint64
}

// New builds an attribution layer for cores cores.
func New(cores int) *Attrib {
	return &Attrib{percore: make([]CoreAcc, cores)}
}

// Fold retires one request: its latency and blame vector fold into the
// owning core's accumulator for the vector's class.
func (a *Attrib) Fold(core int, v *Vector, now uint64) {
	if a == nil {
		return
	}
	ca := &a.percore[core]
	st := &ca.Class[v.class]
	st.Requests++
	st.Latency += now - v.begin
	for c := CompL1; c < NumComponents; c++ {
		st.Comp[c] += v.counts[c]
	}
	ca.Unattributed += now - v.last
}

// CorrEval reports one PageSeer correlation evaluation (PCTc lookup off
// the demand path) taking cycles.
func (a *Attrib) CorrEval(cycles uint64) {
	if a == nil {
		return
	}
	a.corrEvalCycles += cycles
	a.corrEvals++
}

// AddCore charges the ideal-core base for one core at collect time:
// cycles is the core's retired instruction count (one cycle each). It
// lands in the class-None stack's CompCore slot, which the conservation
// law deliberately excludes.
func (a *Attrib) AddCore(core int, cycles uint64) {
	if a == nil {
		return
	}
	a.percore[core].Class[ClassNone].Comp[CompCore] += cycles
}

// Core exposes one core's accumulator (for tests and reports).
func (a *Attrib) Core(i int) CoreAcc {
	if a == nil {
		return CoreAcc{}
	}
	return a.percore[i]
}

// Reset zeroes every accumulator — called at the end of warm-up so the
// measured epoch starts clean. Requests in flight across the boundary
// stay internally consistent: their vectors are self-contained.
func (a *Attrib) Reset() {
	if a == nil {
		return
	}
	for i := range a.percore {
		a.percore[i] = CoreAcc{}
	}
	a.corrEvalCycles, a.corrEvals = 0, 0
}

// Summary is the per-run CPI-stack digest surfaced in sim.Results.CPIStack.
// Fixed-size fields only, so campaign results stay DeepEqual-comparable
// across serial and parallel runs.
type Summary struct {
	// Class aggregates the per-core stacks over cores, in core order.
	Class [NumClasses]Stack
	// Unattributed sums the per-core residuals (zero on a correct build).
	Unattributed uint64
	// CorrEvalCycles/CorrEvals: PageSeer correlation-evaluation machinery
	// (PCTc lookups off the demand path; outside the conservation law).
	CorrEvalCycles uint64
	CorrEvals      uint64
}

// Add accumulates o into s (sampled-window aggregation). All fields are
// plain sums, so adding per-window summaries equals summarising the union.
func (s *Summary) Add(o Summary) {
	for c := range s.Class {
		s.Class[c].add(o.Class[c])
	}
	s.Unattributed += o.Unattributed
	s.CorrEvalCycles += o.CorrEvalCycles
	s.CorrEvals += o.CorrEvals
}

// Total sums the per-class stacks.
func (s Summary) Total() Stack {
	var t Stack
	for _, st := range s.Class {
		t.add(st)
	}
	return t
}

// Summary reduces the accumulators to the fixed-size digest. A nil Attrib
// yields the zero summary.
func (a *Attrib) Summary() Summary {
	if a == nil {
		return Summary{}
	}
	var s Summary
	for i := range a.percore {
		ca := &a.percore[i]
		for cl := range ca.Class {
			s.Class[cl].add(ca.Class[cl])
		}
		s.Unattributed += ca.Unattributed
	}
	s.CorrEvalCycles, s.CorrEvals = a.corrEvalCycles, a.corrEvals
	return s
}

// Audit checks the conservation law: for every core and class, the
// component-attributed cycles (excluding the collect-time CompCore base)
// sum exactly to the measured end-to-end latency, and no cycles are left
// unattributed. A stage that fails to stamp its final boundary leaves a
// residual, so both checks fire — the property the sim-level mutation
// test pins. Registered with the end-of-run audits when attribution and
// Config.Audit are both enabled.
func (a *Attrib) Audit(ad *check.Audit) {
	if a == nil {
		return
	}
	for core := range a.percore {
		ca := &a.percore[core]
		ad.Checkf(ca.Unattributed == 0,
			"attrib: core %d retired %d cycles unattributed (a stage missed its final stamp)",
			core, ca.Unattributed)
		for cl := range ca.Class {
			st := &ca.Class[cl]
			var sum uint64
			for c := CompL1; c < NumComponents; c++ {
				sum += st.Comp[c]
			}
			ad.Checkf(sum == st.Latency,
				"attrib conservation: core %d class %v: components sum to %d cycles but end-to-end latency is %d over %d requests",
				core, Class(cl), sum, st.Latency, st.Requests)
		}
	}
}
