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
	lastDecay  uint64

	// idx holds each page's counter and heap slot, indexed by PPN over
	// the pages a run can name (the tables key pages by identity, not by
	// residence, so either table may hold a page of either tier); a zero
	// counter marks a page with no entry, and a page past the end panics
	// (with a *mem.DomainError when it would add one). heap holds slot
	// numbers as a binary min-heap on (key, PPN), where a slot's key is its
	// page's counter as of its last placement in the heap. Touch raises
	// only the counter, so the key may lag it; a full table refreshes
	// lagging roots before it evicts, which makes the root the coldest
	// entry, lowest PPN first among equal counts (a tie-independent choice
	// keeps runs deterministic). Each slot records its heap position, so
	// reordering the heap writes no index entry. free lists the slots no
	// page holds.
	idx   []hptEntry
	slots []hptSlot
	free  []int32
	heap  []int32
}

type hptEntry struct {
	count uint32
	slot  int32
}

type hptSlot struct {
	ppn mem.PPN
	key uint32 // heap key: the counter when last placed, never above it
	at  int32  // position in heap
}

// NewHPT builds an empty hot page table over pages physical pages that
// halves counters every interval CPU cycles of sim time.
func NewHPT(sim *engine.Sim, interval uint64, capacity int, counterMax uint32, pages uint64) *HPT {
	return &HPT{
		sim:        sim,
		interval:   interval,
		capacity:   capacity,
		counterMax: counterMax,
		idx:        make([]hptEntry, pages),
	}
}

func (h *HPT) maybeDecay() {
	if h.interval == 0 {
		return
	}
	now := h.sim.Now()
	for h.lastDecay+h.interval <= now {
		h.lastDecay += h.interval
		h.DecayOnce()
		if len(h.heap) == 0 {
			// Fast-forward across idle stretches.
			remaining := (now - h.lastDecay) / h.interval
			h.lastDecay += remaining * h.interval
			break
		}
	}
}

// DecayOnce applies one counter-halving pass immediately, without consulting
// the engine clock or advancing the lazy-decay cursor. The sampled scheduler's
// fast-forward path uses it to model the decay intervals that elapse across
// frozen-clock gaps; the lazy clock-keyed schedule resumes untouched when
// detailed execution restarts.
//
// The survivors' keys are reset to their halved counts and re-heapified:
// halving can also tie two counts that differed, which may leave a lower
// PPN below a higher one.
func (h *HPT) DecayOnce() {
	n := 0
	for _, s := range h.heap {
		e := &h.idx[h.slots[s].ppn]
		if e.count /= 2; e.count == 0 {
			h.free = append(h.free, s)
			continue
		}
		h.slots[s].key = e.count
		h.put(n, s)
		n++
	}
	h.heap = h.heap[:n]
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Len returns the number of live entries.
func (h *HPT) Len() int {
	h.maybeDecay()
	return len(h.heap)
}

// entry returns p's index entry for a write. The reads index idx
// directly to stay inlinable; Go's bounds check panics for them.
func (h *HPT) entry(p mem.PPN) *hptEntry {
	mem.CheckFrame("core: HPT", uint64(p), uint64(len(h.idx)))
	return &h.idx[p]
}

// Count returns the counter for p (0 if absent).
func (h *HPT) Count(p mem.PPN) uint32 {
	h.maybeDecay()
	return h.idx[p].count
}

// Contains reports whether p has an entry — the DRAM HPT's "locked in
// DRAM" predicate.
func (h *HPT) Contains(p mem.PPN) bool {
	h.maybeDecay()
	return h.idx[p].count != 0
}

// Touch records one LLC miss on p and returns the updated counter. When the
// table is full, the coldest entry is evicted to make room.
func (h *HPT) Touch(p mem.PPN) uint32 {
	h.maybeDecay()
	if e := h.entry(p); e.count != 0 {
		if e.count < h.counterMax {
			e.count++ // the heap key catches up if the slot reaches the root
		}
		return e.count
	}
	if len(h.heap) >= h.capacity && len(h.heap) > 0 {
		// A root whose key lags its count sinks with its key refreshed.
		// Once the root's key is current it is the coldest entry: every
		// other entry's count is at least its key, which the heap orders
		// after the root's.
		for {
			r := &h.slots[h.heap[0]]
			c := h.idx[r.ppn].count
			if r.key == c {
				break
			}
			r.key = c
			h.down(0)
		}
		// Evict the root: its slot takes the new page and sinks.
		s := h.heap[0]
		h.idx[h.slots[s].ppn] = hptEntry{}
		h.slots[s].ppn, h.slots[s].key = p, 1
		h.idx[p] = hptEntry{count: 1, slot: s}
		h.down(0)
		return 1
	}
	h.insert(p, 1)
	return 1
}

// Remove drops p's entry (used when a page changes residence).
func (h *HPT) Remove(p mem.PPN) {
	if e := h.idx[p]; e.count != 0 {
		h.removeAt(int(h.slots[e.slot].at))
	}
}

// Set overwrites p's counter (used to re-arm an edge trigger after the
// Swap Driver declines a request).
func (h *HPT) Set(p mem.PPN, v uint32) {
	h.maybeDecay()
	e := h.entry(p)
	switch {
	case v == 0:
		if e.count != 0 {
			h.removeAt(int(h.slots[e.slot].at))
		}
	case e.count == 0:
		h.insert(p, min(v, h.counterMax))
	default:
		e.count = min(v, h.counterMax)
		h.slots[e.slot].key = e.count
		h.fix(int(h.slots[e.slot].at))
	}
}

// insert adds page p with counter c.
func (h *HPT) insert(p mem.PPN, c uint32) {
	var s int32
	if n := len(h.free); n > 0 {
		s = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		s = int32(len(h.slots))
		h.slots = append(h.slots, hptSlot{})
	}
	h.slots[s] = hptSlot{ppn: p, key: c}
	h.idx[p] = hptEntry{count: c, slot: s}
	h.heap = append(h.heap, s)
	h.up(len(h.heap) - 1)
}

// removeAt deletes the entry at heap position i, filling the position
// with the last entry.
func (h *HPT) removeAt(i int) {
	s := h.heap[i]
	h.idx[h.slots[s].ppn] = hptEntry{}
	h.free = append(h.free, s)
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	if i < len(h.heap) {
		h.put(i, last)
		h.fix(i)
	}
}

// less orders slots by (key, PPN).
func (h *HPT) less(a, b int32) bool {
	x, y := &h.slots[a], &h.slots[b]
	return x.key < y.key || x.key == y.key && x.ppn < y.ppn
}

// put places slot s at heap position i.
func (h *HPT) put(i int, s int32) {
	h.heap[i] = s
	h.slots[s].at = int32(i)
}

// fix restores the heap order after the entry at i changed its key.
func (h *HPT) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// up raises the entry at i above any larger parent. Parents move down
// into the hole it leaves, so each moved entry is written once.
func (h *HPT) up(i int) {
	s := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(s, h.heap[parent]) {
			break
		}
		h.put(i, h.heap[parent])
		i = parent
	}
	h.put(i, s)
}

// down sinks the entry at i below any smaller child, moving children up
// into the hole, and reports whether it moved.
func (h *HPT) down(i int) bool {
	s, start := h.heap[i], i
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if r := c + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[c]) {
			c = r
		}
		if !h.less(h.heap[c], s) {
			break
		}
		h.put(i, h.heap[c])
		i = c
	}
	h.put(i, s)
	return i > start
}
