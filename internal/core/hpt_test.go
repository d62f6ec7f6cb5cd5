package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

func TestHPTTouchAndThreshold(t *testing.T) {
	sim := engine.New()
	h := NewHPT(sim, 0, 16, 63)
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
	h := NewHPT(sim, 0, 16, 7)
	for i := 0; i < 100; i++ {
		h.Touch(1)
	}
	if h.Count(1) != 7 {
		t.Fatalf("counter = %d, want saturated 7", h.Count(1))
	}
}

func TestHPTLazyDecay(t *testing.T) {
	sim := engine.New()
	h := NewHPT(sim, 1000, 16, 63)
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
	h := NewHPT(sim, 100, 16, 63)
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
	h := NewHPT(sim, 0, 3, 63)
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
	h := NewHPT(sim, 0, 8, 63)
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
		h := NewHPT(sim, interval, 64, 63)
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
