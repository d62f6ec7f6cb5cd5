// Package engine provides the deterministic discrete-event core that every
// timed component of the simulator is built on.
//
// Time is measured in CPU cycles (uint64). Components schedule closures at
// absolute or relative cycles; the Sim drains them in (cycle, insertion
// order) so runs are fully deterministic and repeatable.
package engine

import (
	"fmt"
	"math/bits"
	"slices"
)

// event is a heap-scheduled closure. seq breaks ties between heap events
// scheduled for the same cycle, preserving insertion order; wheel events need
// no seq (see Sim).
type event struct {
	cycle uint64
	seq   uint64
	fn    func()
}

// less orders heap events by (cycle, seq) — the deterministic fire order.
func (e event) less(o event) bool {
	if e.cycle != o.cycle {
		return e.cycle < o.cycle
	}
	return e.seq < o.seq
}

// WheelHorizon is the timing wheel's reach in cycles: an event whose delay
// from the current cycle is below the horizon goes into an O(1)
// cycle-indexed bucket; anything further overflows to the heap. 1024 cycles
// covers every fixed latency the simulator schedules on its hot paths with
// headroom — cache tag lookups (2/8/32 cycles, Table I), the MMU hint wire
// (2), TLB probes, and the DRAM/NVM bank timings (the worst is NVM
// tWR=180 memory cycles = 360 CPU cycles; swap aging re-evaluations sit at
// 400) — so in practice only epoch marks, HPT decay ticks, and other
// coarse-grained housekeeping ever touch the heap.
const WheelHorizon = 1024

const (
	wheelMask  = WheelHorizon - 1
	wheelWords = WheelHorizon / 64
)

// wheelSlot is one cycle bucket. Because every wheel event satisfies
// now <= cycle < now+WheelHorizon, the slots a live window maps to are
// distinct, so a slot only ever holds closures for a single cycle at a time —
// a cycle that follows from now and the slot index, so the slot stores the
// closures alone. Appends arrive in insertion order and the slot needs no
// sorting, just a drain cursor. Drained slots keep their backing array
// (length reset to zero), so a warmed wheel schedules without allocating.
type wheelSlot struct {
	fns  []func()
	head int
}

// Sim is a discrete-event simulator clock and event queue.
// The zero value is not ready to use; call New.
//
// The queue is hierarchical: a timing wheel of WheelHorizon cycle-indexed
// buckets gives O(1) insert and extract for near-future events — which is
// nearly all of them, since the simulator's hot paths schedule short fixed
// delays (cache latencies, bank timings) — while far-future events overflow
// to a hand-rolled value-typed 4-ary min-heap. The 4-ary heap (rather than
// container/heap) avoids boxing each event through an interface{}; the
// wheel in front of it removes the O(log n) sift from the per-event
// constant entirely.
//
// Only heap events carry a seq. An event goes to the heap only when its
// cycle is at least WheelHorizon ahead of now, so any later insert for the
// same cycle is a wheel insert made at a strictly later now: within one
// cycle every heap event was scheduled before every wheel event. Step
// therefore fires a cycle's heap events first and its wheel events after,
// comparing cycles only, and the fire order is byte-identical to a pure
// (cycle, insertion order) heap (DisableWheel pins this via the
// differential tests).
type Sim struct {
	pq   []event
	now  uint64
	seq  uint64 // last heap insertion number
	fire uint64 // events executed, for stats/debugging

	slots    [WheelHorizon]wheelSlot
	occ      [wheelWords]uint64 // bitmap of non-empty slots
	wheelLen int
	heapOnly bool // DisableWheel: reference mode for differential tests

	// tick (SetTick) and watchdog (SetWatchdog) are independent hooks, so
	// a liveness monitor rides the clock while an observability sampler
	// owns the tick. hookAt is the earlier of their next boundaries, so
	// Step pays one compare per event for both; it may lag low, never high.
	tick, watchdog hook
	hookAt         uint64
}

// hook is a cycle-tick slot, fired from Step when the clock reaches or
// crosses a period boundary. Deliberately not a queued event — a
// self-scheduling sampler would keep Drain alive forever and perturb
// Pending/Fired; the hook rides the clock instead.
type hook struct {
	fn    func()
	every uint64
	next  uint64 // the next boundary; never when disarmed
}

// never is a disarmed hook's boundary: a cycle the clock never reaches.
const never = ^uint64(0)

// set arms the hook with its first boundary every cycles after now, or
// disarms it when every is 0 or fn is nil.
func (h *hook) set(now, every uint64, fn func()) {
	*h = hook{next: never}
	if every != 0 && fn != nil {
		*h = hook{fn: fn, every: every, next: now + every}
	}
}

// fire runs fn if the clock has reached the next boundary, advancing the
// boundary past now first, so a fn that panics leaves the slot consistent.
func (h *hook) fire(now uint64) {
	if now < h.next {
		return
	}
	for h.next <= now {
		h.next += h.every
	}
	h.fn()
}

// New returns an empty simulator positioned at cycle 0.
func New() *Sim {
	return &Sim{tick: hook{next: never}, watchdog: hook{next: never}, hookAt: never}
}

// Now returns the current simulation cycle.
func (s *Sim) Now() uint64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fire }

// Pending returns the number of events waiting in the queue.
func (s *Sim) Pending() int { return len(s.pq) + s.wheelLen }

// Reserve pre-sizes the event queue for about n concurrently pending
// events: the overflow heap gets capacity n and every wheel bucket a small
// baseline, sliced from one backing array (a bucket that outgrows its slice
// reallocates alone), so a run sized by the caller (sim setup knows its core
// count and memory-level parallelism) never pays append-growth
// reallocations mid-run. Reserve never shrinks and is cheap to call again.
func (s *Sim) Reserve(n int) {
	if n <= 0 {
		return
	}
	s.pq = slices.Grow(s.pq, max(n-len(s.pq), 0))
	per := max(n/WheelHorizon, 4)
	var backing []func()
	for i := range s.slots {
		if sl := &s.slots[i]; cap(sl.fns) < per {
			if backing == nil {
				backing = make([]func(), WheelHorizon*per)
			}
			sl.fns = append(backing[i*per:i*per:(i+1)*per], sl.fns...)
		}
	}
}

// DisableWheel forces every event through the overflow heap — the reference
// mode the wheel-vs-heap differential tests compare against, and a
// bisection aid if wheel ordering is ever in doubt. It is a construction
// option: calling it with events pending panics.
func (s *Sim) DisableWheel() {
	if s.Pending() != 0 {
		panic("engine: DisableWheel with events pending")
	}
	s.heapOnly = true
}

// push inserts e, sifting up from the tail. Parent of i is (i-1)/4.
func (s *Sim) push(e event) {
	s.pq = append(s.pq, e)
	i := len(s.pq) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.pq[i].less(s.pq[p]) {
			break
		}
		s.pq[i], s.pq[p] = s.pq[p], s.pq[i]
		i = p
	}
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the popped closure (and everything it captures) is released to
// the GC immediately instead of lingering in the backing array until that
// slot is overwritten by a future push.
func (s *Sim) pop() event {
	top := s.pq[0]
	n := len(s.pq) - 1
	last := s.pq[n]
	s.pq[n] = event{}
	s.pq = s.pq[:n]
	if n > 0 {
		// Sift last down from the root. Children of i are 4i+1..4i+4.
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			hi := c + 4
			if hi > n {
				hi = n
			}
			min := c
			for j := c + 1; j < hi; j++ {
				if s.pq[j].less(s.pq[min]) {
					min = j
				}
			}
			if !s.pq[min].less(last) {
				break
			}
			s.pq[i] = s.pq[min]
			i = min
		}
		s.pq[i] = last
	}
	return top
}

// nextWheelIdx returns the slot holding the earliest wheel event, or -1.
// Because wheel cycles live in [now, now+WheelHorizon), circular slot order
// starting at now's own slot is cycle order, so the first occupied slot in
// that order is the minimum; the bitmap turns the scan into at most
// wheelWords+1 word probes.
func (s *Sim) nextWheelIdx() int {
	if s.wheelLen == 0 {
		return -1
	}
	start := int(s.now) & wheelMask
	w := start >> 6
	if rem := s.occ[w] >> uint(start&63); rem != 0 {
		return start + bits.TrailingZeros64(rem)
	}
	for k := 1; k <= wheelWords; k++ {
		i := (w + k) % wheelWords
		if s.occ[i] != 0 {
			// At k == wheelWords this is word w again; its bits at or above
			// start were just checked empty, so anything found wrapped.
			return i<<6 + bits.TrailingZeros64(s.occ[i])
		}
	}
	panic("engine: wheel count positive but no occupied slot")
}

// slotCycle returns the cycle slot i holds: the wheel window
// [now, now+WheelHorizon) maps onto the slots one to one, starting at now's
// own slot.
func (s *Sim) slotCycle(i int) uint64 {
	return s.now + uint64((i-int(s.now))&wheelMask)
}

// wheelPop removes the head closure of slot i, zeroing the vacated entry
// (the same closure-release guarantee as the heap's pop). A fully drained
// slot resets to its backing array for reuse.
func (s *Sim) wheelPop(i int) func() {
	sl := &s.slots[i]
	fn := sl.fns[sl.head]
	sl.fns[sl.head] = nil
	sl.head++
	s.wheelLen--
	if sl.head == len(sl.fns) {
		sl.fns = sl.fns[:0]
		sl.head = 0
		s.occ[i>>6] &^= 1 << uint(i&63)
	}
	return fn
}

// next extracts the earliest event across the wheel and the heap and
// advances the clock to its cycle. Within one cycle the heap's events fire
// first (see Sim), so the merge compares cycles only.
func (s *Sim) next() (func(), bool) {
	if wi := s.nextWheelIdx(); wi >= 0 {
		if c := s.slotCycle(wi); s.peekHeap() > c {
			s.now = c
			return s.wheelPop(wi), true
		}
	} else if len(s.pq) == 0 {
		return nil, false
	}
	e := s.pop()
	s.now = e.cycle
	return e.fn, true
}

// peekHeap returns the heap head's cycle, or the maximum cycle when the
// heap is empty.
func (s *Sim) peekHeap() uint64 {
	if len(s.pq) == 0 {
		return ^uint64(0)
	}
	return s.pq[0].cycle
}

// peekCycle returns the cycle of the next event without extracting it.
func (s *Sim) peekCycle() (uint64, bool) {
	c := s.peekHeap()
	if wi := s.nextWheelIdx(); wi >= 0 {
		c = min(c, s.slotCycle(wi))
	}
	return c, s.Pending() > 0
}

// At schedules fn to run at the given absolute cycle.
// Scheduling in the past panics: it always indicates a component bug, and
// silently reordering time would corrupt every timing statistic downstream.
// Scheduling at the current cycle is legal and fires after already-queued
// same-cycle events.
func (s *Sim) At(cycle uint64, fn func()) {
	if cycle < s.now {
		panic(fmt.Sprintf("engine: scheduling at cycle %d before now %d", cycle, s.now))
	}
	if !s.heapOnly && cycle-s.now < WheelHorizon {
		i := int(cycle) & wheelMask
		sl := &s.slots[i]
		sl.fns = append(sl.fns, fn)
		s.occ[i>>6] |= 1 << uint(i&63)
		s.wheelLen++
		return
	}
	s.seq++
	s.push(event{cycle: cycle, seq: s.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (s *Sim) After(delay uint64, fn func()) {
	s.At(s.now+delay, fn)
}

// SetTick installs fn to run whenever the clock reaches or crosses a
// multiple of `every` cycles from now — the engine's cycle-time hook for
// periodic observers (e.g. the epoch timeline sampler). The hook is not a
// queued event: it cannot keep Drain alive, does not count toward Fired,
// and fires at the first executed event on or after each boundary (discrete
// time jumps, so boundaries between events fire once, at the jump). fn must
// not schedule events or mutate component state. SetTick(0, nil) disarms.
func (s *Sim) SetTick(every uint64, fn func()) {
	s.tick.set(s.now, every, fn)
	s.armHooks()
}

// SetWatchdog installs fn on the watchdog tick slot with the same firing
// semantics as SetTick: fn runs at the first executed event on or after
// each multiple of `every` cycles from now. The slot is separate from
// SetTick so liveness monitoring composes with the timeline sampler.
// Unlike the tick's fn, the watchdog's may panic (that is its job); it
// must not schedule events. SetWatchdog(0, nil) disarms.
func (s *Sim) SetWatchdog(every uint64, fn func()) {
	s.watchdog.set(s.now, every, fn)
	s.armHooks()
}

// armHooks recomputes hookAt from the armed hooks.
func (s *Sim) armHooks() { s.hookAt = min(s.tick.next, s.watchdog.next) }

// SnapshotPending returns the cycles of up to max queued events in fire
// order without disturbing the queue — crashdump forensics for a run that
// died with work still scheduled.
func (s *Sim) SnapshotPending(max int) []uint64 {
	if max <= 0 {
		return nil
	}
	cycles := make([]uint64, 0, s.Pending())
	for i := range s.slots {
		sl := &s.slots[i]
		for range sl.fns[sl.head:] {
			cycles = append(cycles, s.slotCycle(i))
		}
	}
	for _, e := range s.pq {
		cycles = append(cycles, e.cycle)
	}
	slices.Sort(cycles)
	if len(cycles) > max {
		cycles = cycles[:max]
	}
	return cycles
}

// fireHooks runs the tick and watchdog hooks if the clock has reached their
// next boundary. Step calls it after advancing to an event's cycle, so the
// hooks observe the state as of the instant the clock first lands on the
// boundary.
func (s *Sim) fireHooks() {
	s.tick.fire(s.now)
	s.watchdog.fire(s.now)
	s.armHooks()
}

// Step executes the next event, advancing the clock to its cycle.
// It reports whether an event was executed. While the current cycle's slot
// holds events and no heap event shares the cycle, the next event is that
// slot's head, so Step takes it without a bitmap scan; in a detailed
// simulation run, 35-61% of events fire at the cycle of the event before.
func (s *Sim) Step() bool {
	var fn func()
	i := int(s.now) & wheelMask
	if sl := &s.slots[i]; sl.head < len(sl.fns) && s.peekHeap() > s.now {
		fn = s.wheelPop(i)
	} else {
		var ok bool
		if fn, ok = s.next(); !ok {
			return false
		}
	}
	if s.now >= s.hookAt {
		s.fireHooks()
	}
	s.fire++
	fn()
	return true
}

// RunUntil executes events until the queue is empty or the next event lies
// beyond the given cycle. The clock is left at the last executed event (or
// moved to `cycle` if it drained early), never beyond cycle.
func (s *Sim) RunUntil(cycle uint64) {
	for {
		c, ok := s.peekCycle()
		if !ok || c > cycle {
			break
		}
		s.Step()
	}
	if s.now < cycle {
		s.now = cycle
	}
}

// Drain executes events until none remain. maxEvents bounds runaway
// self-scheduling loops; Drain panics if exceeded (0 means no bound).
func (s *Sim) Drain(maxEvents uint64) {
	start := s.fire
	for s.Step() {
		if maxEvents != 0 && s.fire-start > maxEvents {
			panic("engine: Drain exceeded maxEvents; runaway event loop?")
		}
	}
}
