package mem

import (
	"math/rand"
	"sort"
	"testing"
)

// collidingKeys returns n keys whose hash's top ten bits are all ones: they
// share the last home slot of every table up to 1024 slots, so their probe
// run starts at the end of the slice and wraps to the front.
func collidingKeys(n int) []uint64 {
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if k*fibMul>>54 == 1023 {
			out = append(out, k)
		}
	}
	return out
}

// TestTableMatchesMap drives a Table and a Go map with the same random
// Put/Get/Del stream over colliding and random keys, checking after every
// op that each key ever seen resolves identically and that the live counts
// agree. A deletion that clears its slot without shifting the rest of the
// probe run back strands later members, and fails here.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := append(collidingKeys(40), 0) // 0 is a legal key
		for i := 0; i < 40; i++ {
			keys = append(keys, uint64(rng.Intn(1<<20)))
		}
		var tab Table[int]
		ref := make(map[uint64]int)
		maxSlots := 0
		for op := 0; op < 2000; op++ {
			k := keys[rng.Intn(len(keys))]
			_, present := ref[k]
			// Lean towards inserts for the first half so the table fills
			// past several growths, then towards deletes so it drains.
			grow := op < 1000
			switch r := rng.Intn(4); {
			case r == 3:
				// Overwrite or add without regard to presence.
				tab.Put(k, op)
				ref[k] = op
			case !present && (grow || r == 0):
				tab.Put(k, op)
				ref[k] = op
			case present && (!grow || r == 0):
				if v, ok := tab.Del(k); !ok || v != ref[k] {
					t.Fatalf("seed %d op %d: Del(%#x) = %d, %v; want %d, true", seed, op, k, v, ok, ref[k])
				}
				delete(ref, k)
			case !present:
				if _, ok := tab.Del(k); ok {
					t.Fatalf("seed %d op %d: Del(%#x) removed an absent key", seed, op, k)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: table holds %d keys, map %d", seed, op, tab.Len(), len(ref))
			}
			for _, key := range keys {
				got, ok := tab.Get(key)
				want, wantOK := ref[key]
				if got != want || ok != wantOK {
					t.Fatalf("seed %d op %d: Get(%#x) = %d, %v; want %d, %v", seed, op, key, got, ok, want, wantOK)
				}
			}
			if len(tab.slots) > maxSlots {
				maxSlots = len(tab.slots)
			}
		}
		if maxSlots < 4*tableMin {
			t.Fatalf("seed %d: table peaked at %d slots; the stream must cross two growths", seed, maxSlots)
		}
	}
}

// TestTableRefEachClear: Ref writes through to the stored value, Each
// visits exactly the live keys, and Clear empties the table for reuse.
func TestTableRefEachClear(t *testing.T) {
	var tab Table[int]
	if tab.Ref(7) != nil || tab.Has(7) {
		t.Fatal("empty table reports a key")
	}
	keys := collidingKeys(10)
	for i, k := range keys {
		tab.Put(k, i)
	}
	*tab.Ref(keys[3]) += 100
	if v, _ := tab.Get(keys[3]); v != 103 {
		t.Fatalf("Ref did not write through: %d", v)
	}
	var seen []uint64
	tab.Each(func(k uint64, _ int) { seen = append(seen, k) })
	sort.Slice(seen, func(a, b int) bool { return seen[a] < seen[b] })
	if len(seen) != len(keys) {
		t.Fatalf("Each visited %d keys, want %d", len(seen), len(keys))
	}
	for i := range seen {
		if seen[i] != keys[i] {
			t.Fatalf("Each visited %#x, want %#x", seen[i], keys[i])
		}
	}
	tab.Clear()
	if tab.Len() != 0 || tab.Has(keys[0]) {
		t.Fatal("Clear left keys behind")
	}
	tab.Put(keys[0], 1)
	if v, ok := tab.Get(keys[0]); !ok || v != 1 {
		t.Fatal("table unusable after Clear")
	}
}

// TestZeroAllocTable: once grown, Put, Get and Del of a steady working set
// allocate nothing.
func TestZeroAllocTable(t *testing.T) {
	var tab Table[*int]
	x := new(int)
	keys := collidingKeys(8)
	for _, k := range keys {
		tab.Put(k, x)
	}
	for _, k := range keys {
		tab.Del(k)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			tab.Put(k, x)
		}
		for _, k := range keys {
			if v, ok := tab.Get(k); !ok || v != x {
				panic("lost key")
			}
			tab.Del(k)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Put/Get/Del: %.1f allocs/op, want 0", allocs)
	}
}
