package cache

import (
	"math/rand"
	"testing"

	"pageseer/internal/mem"
)

// collidingLines returns n line addresses whose hash's top ten bits are all
// ones: they share the last home slot of every table up to 1024 slots, so
// their probe run starts at the end of the slice and wraps to the front.
func collidingLines(n int) []mem.Addr {
	var out []mem.Addr
	for ln := uint64(1); len(out) < n; ln++ {
		if ln*0x9e3779b97f4a7c15>>54 == 1023 {
			out = append(out, mem.Addr(ln<<mem.LineShift))
		}
	}
	return out
}

// TestMSHRTableMatchesMap drives the open-addressed table and a map with the
// same random put/get/del stream over colliding and random lines, checking
// after every op that each line ever seen resolves identically and that the
// live counts agree. A deletion that clears its slot without shifting the
// rest of the probe run back strands later members, and fails here.
func TestMSHRTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := collidingLines(40)
		for i := 0; i < 40; i++ {
			keys = append(keys, mem.Addr(rng.Intn(1<<20))<<mem.LineShift)
		}
		var tab mshrTable
		ref := make(map[mem.Addr]*mshr)
		maxSlots := 0
		for op := 0; op < 2000; op++ {
			k := keys[rng.Intn(len(keys))]
			// Lean towards inserts for the first half so the table fills
			// past several growths, then towards deletes so it drains.
			grow := op < 1000
			switch r := rng.Intn(4); {
			case ref[k] == nil && (grow || r == 0):
				m := &mshr{line: k}
				tab.put(m)
				ref[k] = m
			case ref[k] != nil && (!grow || r == 0):
				tab.del(k)
				delete(ref, k)
			}
			if tab.n != len(ref) {
				t.Fatalf("seed %d op %d: table holds %d records, map %d", seed, op, tab.n, len(ref))
			}
			for _, key := range keys {
				if got, want := tab.get(key), ref[key]; got != want {
					t.Fatalf("seed %d op %d: get(%#x) = %p, want %p", seed, op, uint64(key), got, want)
				}
			}
			if len(tab.slots) > maxSlots {
				maxSlots = len(tab.slots)
			}
		}
		if maxSlots < 4*mshrTableMin {
			t.Fatalf("seed %d: table peaked at %d slots; the stream must cross two growths", seed, maxSlots)
		}
	}
}
