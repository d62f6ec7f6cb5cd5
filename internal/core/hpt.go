package core

import (
	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// HPT is one Hot Page Table (Section III-C3): a small fully-associative
// table of (PPN, counter) pairs recording frequently-missed pages. Counters
// saturate at CounterMax and are halved at a fixed interval; entries whose
// counter reaches zero are removed. The DRAM HPT locks hot pages in DRAM;
// the NVM HPT triggers regular swaps when a counter reaches the swap
// threshold. Both sit off the request critical path, so the model is purely
// functional (no added request latency).
//
// Decay is applied lazily: instead of a periodic hardware tick (which would
// keep the event queue eternally busy), each operation first applies the
// halvings that elapsed since the last one — an exact, deterministic
// equivalent of the paper's fixed-interval counter halving.
type HPT struct {
	sim        *engine.Sim
	interval   uint64
	capacity   int
	counterMax uint32
	entries    map[mem.PPN]uint32
	lastDecay  uint64

	inserts   uint64
	evictions uint64
	decays    uint64
}

// NewHPT builds an empty hot page table that halves counters every
// interval CPU cycles of sim time.
func NewHPT(sim *engine.Sim, interval uint64, capacity int, counterMax uint32) *HPT {
	return &HPT{
		sim:        sim,
		interval:   interval,
		capacity:   capacity,
		counterMax: counterMax,
		entries:    make(map[mem.PPN]uint32),
	}
}

func (h *HPT) maybeDecay() {
	if h.interval == 0 {
		return
	}
	now := h.sim.Now()
	for h.lastDecay+h.interval <= now {
		h.lastDecay += h.interval
		h.decays++
		for p, c := range h.entries {
			c /= 2
			if c == 0 {
				delete(h.entries, p)
				continue
			}
			h.entries[p] = c
		}
		if len(h.entries) == 0 {
			// Fast-forward across idle stretches.
			remaining := (now - h.lastDecay) / h.interval
			h.lastDecay += remaining * h.interval
			h.decays += remaining
			break
		}
	}
}

// DecayOnce applies one counter-halving pass immediately, without consulting
// the engine clock or advancing the lazy-decay cursor. The sampled scheduler's
// fast-forward path uses it to model the decay intervals that elapse across
// frozen-clock gaps; the lazy clock-keyed schedule resumes untouched when
// detailed execution restarts.
func (h *HPT) DecayOnce() {
	for p, c := range h.entries {
		c /= 2
		if c == 0 {
			delete(h.entries, p)
			continue
		}
		h.entries[p] = c
	}
	h.decays++
}

// Len returns the number of live entries.
func (h *HPT) Len() int {
	h.maybeDecay()
	return len(h.entries)
}

// Count returns the counter for p (0 if absent).
func (h *HPT) Count(p mem.PPN) uint32 {
	h.maybeDecay()
	return h.entries[p]
}

// Contains reports whether p has an entry — the DRAM HPT's "locked in
// DRAM" predicate.
func (h *HPT) Contains(p mem.PPN) bool {
	h.maybeDecay()
	_, ok := h.entries[p]
	return ok
}

// Touch records one LLC miss on p and returns the updated counter. When the
// table is full, the coldest entry is evicted to make room.
func (h *HPT) Touch(p mem.PPN) uint32 {
	h.maybeDecay()
	if c, ok := h.entries[p]; ok {
		if c < h.counterMax {
			c++
			h.entries[p] = c
		}
		return c
	}
	if len(h.entries) >= h.capacity {
		h.evictColdest()
	}
	h.entries[p] = 1
	h.inserts++
	return 1
}

// Remove drops p's entry (used when a page changes residence).
func (h *HPT) Remove(p mem.PPN) { delete(h.entries, p) }

// Set overwrites p's counter (used to re-arm an edge trigger after the
// Swap Driver declines a request).
func (h *HPT) Set(p mem.PPN, v uint32) {
	h.maybeDecay()
	if v == 0 {
		delete(h.entries, p)
		return
	}
	if v > h.counterMax {
		v = h.counterMax
	}
	h.entries[p] = v
}

func (h *HPT) evictColdest() {
	var victim mem.PPN
	var vc uint32 = ^uint32(0)
	for p, c := range h.entries {
		// Lowest-PPN tie-break: map iteration order is random, and a
		// tie-dependent victim would make runs nondeterministic.
		if c < vc || (c == vc && p < victim) {
			victim, vc = p, c
		}
	}
	delete(h.entries, victim)
	h.evictions++
}
