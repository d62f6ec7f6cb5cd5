package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// testHPTPages sizes the HPTs under test: every PPN the tests touch is below it.
const testHPTPages = 1 << 13

func TestHPTTouchAndThreshold(t *testing.T) {
	sim := engine.New()
	h := NewHPT(sim, 0, 16, 63, testHPTPages)
	for i := 1; i <= 6; i++ {
		if c := h.Touch(42); c != uint32(i) {
			t.Fatalf("count after %d touches = %d", i, c)
		}
	}
	if !h.Contains(42) || h.Count(42) != 6 {
		t.Fatal("entry state wrong")
	}
}

func TestHPTSaturation(t *testing.T) {
	sim := engine.New()
	h := NewHPT(sim, 0, 16, 7, testHPTPages)
	for i := 0; i < 100; i++ {
		h.Touch(1)
	}
	if h.Count(1) != 7 {
		t.Fatalf("counter = %d, want saturated 7", h.Count(1))
	}
}

func TestHPTLazyDecay(t *testing.T) {
	sim := engine.New()
	h := NewHPT(sim, 1000, 16, 63, testHPTPages)
	for i := 0; i < 8; i++ {
		h.Touch(5)
	}
	// One interval: halved once.
	sim.RunUntil(1000)
	if c := h.Count(5); c != 4 {
		t.Fatalf("count after one interval = %d, want 4", c)
	}
	// Three more intervals: 4 -> 2 -> 1 -> 0 (entry removed).
	sim.RunUntil(4000)
	if h.Contains(5) {
		t.Fatalf("entry survived decay to zero (count=%d)", h.Count(5))
	}
}

func TestHPTDecayAcrossIdleGap(t *testing.T) {
	sim := engine.New()
	h := NewHPT(sim, 100, 16, 63, testHPTPages)
	h.Touch(1)
	sim.RunUntil(1_000_000) // long idle: fast-forward must not loop per tick
	if h.Contains(1) {
		t.Fatal("entry survived a long idle gap")
	}
	h.Touch(2)
	if h.Count(2) != 1 {
		t.Fatal("post-gap touch broken")
	}
}

func TestHPTEvictsColdest(t *testing.T) {
	sim := engine.New()
	h := NewHPT(sim, 0, 3, 63, testHPTPages)
	for i := 0; i < 5; i++ {
		h.Touch(1)
	}
	for i := 0; i < 3; i++ {
		h.Touch(2)
	}
	h.Touch(3) // coldest
	h.Touch(4) // evicts 3
	if h.Contains(3) {
		t.Fatal("coldest entry not evicted")
	}
	if !h.Contains(1) || !h.Contains(2) || !h.Contains(4) {
		t.Fatal("wrong entry evicted")
	}
}

func TestHPTRemove(t *testing.T) {
	sim := engine.New()
	h := NewHPT(sim, 0, 8, 63, testHPTPages)
	h.Touch(9)
	h.Remove(9)
	if h.Contains(9) {
		t.Fatal("Remove did not remove")
	}
}

// Property: the lazy decay is equivalent to an eager per-interval halving.
func TestHPTDecayEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		interval := uint64(rng.Intn(500) + 100)
		h := NewHPT(sim, interval, 64, 63, testHPTPages)
		ref := map[uint64]uint32{} // eager reference
		lastDecay := uint64(0)
		now := uint64(0)
		refDecay := func() {
			for now-lastDecay >= interval {
				lastDecay += interval
				for k, v := range ref {
					v /= 2
					if v == 0 {
						delete(ref, k)
					} else {
						ref[k] = v
					}
				}
			}
		}
		for op := 0; op < 300; op++ {
			now += uint64(rng.Intn(int(interval)))
			sim.RunUntil(now)
			refDecay()
			p := uint64(rng.Intn(8))
			if c := ref[p]; c < 63 {
				ref[p] = c + 1
			}
			key := mem.PPN(5000 + p) // distinct key space, same sequence
			h.Touch(key)
			if h.Count(key) != ref[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// scanHPT is the map-and-scan Hot Page Table the heap replaced, kept as
// the reference: a full table evicts the entry with the smallest (count,
// PPN), found by iterating the whole map.
type scanHPT struct {
	sim        *engine.Sim
	interval   uint64
	capacity   int
	counterMax uint32
	entries    map[mem.PPN]uint32
	lastDecay  uint64
}

func (h *scanHPT) decayOnce() {
	for p, c := range h.entries {
		if c /= 2; c == 0 {
			delete(h.entries, p)
		} else {
			h.entries[p] = c
		}
	}
}

func (h *scanHPT) maybeDecay() {
	if h.interval == 0 {
		return
	}
	now := h.sim.Now()
	for h.lastDecay+h.interval <= now {
		h.lastDecay += h.interval
		h.decayOnce()
		if len(h.entries) == 0 {
			h.lastDecay += (now - h.lastDecay) / h.interval * h.interval
			break
		}
	}
}

func (h *scanHPT) touch(p mem.PPN) uint32 {
	h.maybeDecay()
	if c, ok := h.entries[p]; ok {
		if c < h.counterMax {
			c++
			h.entries[p] = c
		}
		return c
	}
	if len(h.entries) >= h.capacity {
		var victim mem.PPN
		vc := ^uint32(0)
		for q, c := range h.entries {
			if c < vc || (c == vc && q < victim) {
				victim, vc = q, c
			}
		}
		delete(h.entries, victim)
	}
	h.entries[p] = 1
	return 1
}

func (h *scanHPT) set(p mem.PPN, v uint32) {
	h.maybeDecay()
	if v == 0 {
		delete(h.entries, p)
		return
	}
	h.entries[p] = min(v, h.counterMax)
}

// TestHPTMatchesScanReference drives the heap-ordered HPT and the
// map-and-scan reference through the same random Touch, Set, Remove,
// DecayOnce and clock-advance sequence. Few pages, a small table and a low
// counter ceiling keep counts tied, so evictions hinge on the lowest-PPN
// tie-break. Count, Contains and Len must agree after every operation.
func TestHPTMatchesScanReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		interval := uint64(rng.Intn(3)) * 400 // 0 turns lazy decay off
		capacity := rng.Intn(12) + 1
		counterMax := uint32(rng.Intn(6) + 2)
		h := NewHPT(sim, interval, capacity, counterMax, uint64(capacity*2+2))
		ref := &scanHPT{sim: sim, interval: interval, capacity: capacity,
			counterMax: counterMax, entries: map[mem.PPN]uint32{}}
		pages := capacity*2 + 2
		for op := 0; op < 3000; op++ {
			p := mem.PPN(rng.Intn(pages))
			desc := ""
			switch k := rng.Intn(20); {
			case k < 12:
				if got, want := h.Touch(p), ref.touch(p); got != want {
					t.Fatalf("seed %d op %d: Touch(%d) = %d, reference %d", seed, op, p, got, want)
				}
				desc = "Touch"
			case k < 14:
				v := uint32(rng.Intn(int(counterMax) + 3))
				h.Set(p, v)
				ref.set(p, v)
				desc = "Set"
			case k < 16:
				h.Remove(p)
				delete(ref.entries, p)
				desc = "Remove"
			case k < 17:
				h.DecayOnce()
				ref.decayOnce()
				desc = "DecayOnce"
			default:
				sim.RunUntil(sim.Now() + uint64(rng.Intn(300)))
				desc = "advance"
			}
			ref.maybeDecay()
			if got, want := h.Len(), len(ref.entries); got != want {
				t.Fatalf("seed %d op %d (%s): Len = %d, reference %d", seed, op, desc, got, want)
			}
			for q := mem.PPN(0); q < mem.PPN(pages); q++ {
				want, in := ref.entries[q]
				if got := h.Count(q); got != want {
					t.Fatalf("seed %d op %d (%s): Count(%d) = %d, reference %d", seed, op, desc, q, got, want)
				}
				if got := h.Contains(q); got != in {
					t.Fatalf("seed %d op %d (%s): Contains(%d) = %v, reference %v", seed, op, desc, q, got, in)
				}
			}
		}
	}
}
