package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/mem"
)

// deferredFetch records fetches so a test decides when each one completes.
type deferredFetch struct {
	done map[mem.Addr]func()
}

func (d *deferredFetch) fetch(line mem.Addr) func(func()) {
	return func(done func()) { d.done[line] = done }
}

func (d *deferredFetch) complete(line mem.Addr) {
	done := d.done[line]
	delete(d.done, line)
	done()
}

func TestPTECacheCounters(t *testing.T) {
	p := NewPTECache()
	d := &deferredFetch{done: map[mem.Addr]func(){}}
	ready := func() {}
	if p.Obtain(0x1000, d.fetch(0x1000), ready) {
		t.Fatal("cold line reported as served from the cache")
	}
	if !p.Obtain(0x1008, d.fetch(0x1000), ready) {
		t.Fatal("request for an in-flight line not merged")
	}
	d.complete(0x1000)
	if !p.Obtain(0x1000, d.fetch(0x1000), ready) {
		t.Fatal("resident line not served from the cache")
	}
	if p.Hits() != 1 || p.PendingHits() != 1 || p.Misses() != 1 {
		t.Fatalf("hits/pending/misses = %d/%d/%d, want 1/1/1", p.Hits(), p.PendingHits(), p.Misses())
	}
	if len(d.done) != 0 {
		t.Fatalf("%d fetches issued beyond the one miss", len(d.done))
	}
}

func TestPTECacheWaitersRunInArrivalOrder(t *testing.T) {
	p := NewPTECache()
	d := &deferredFetch{done: map[mem.Addr]func(){}}
	var order []int
	for i := 0; i < 4; i++ {
		p.Obtain(0x2000, d.fetch(0x2000), func() { order = append(order, i) })
	}
	if len(order) != 0 {
		t.Fatal("a waiter ran before the fill completed")
	}
	d.complete(0x2000)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("waiters ran in order %v, want %v", order, want)
	}
	// The completed fill recycles its waiter slice; the next miss on
	// another line must start with no stale waiters.
	order = nil
	p.Obtain(0x3000, d.fetch(0x3000), func() { order = append(order, 9) })
	d.complete(0x3000)
	if want := []int{9}; !reflect.DeepEqual(order, want) {
		t.Fatalf("second fill ran waiters %v, want %v", order, want)
	}
}

// TestPTECacheAuditCatchesStuckFetch: a fetch that never returns leaves
// the line pending and its record checked out, and the audit says so; once
// it returns, the audit is clean.
func TestPTECacheAuditCatchesStuckFetch(t *testing.T) {
	p := NewPTECache()
	d := &deferredFetch{done: map[mem.Addr]func(){}}
	p.Obtain(0x5000, d.fetch(0x5000), func() {})
	a := &check.Audit{}
	p.Audit(a)
	joined := strings.Join(a.Violations(), "\n")
	if !strings.Contains(joined, "still pending") || !strings.Contains(joined, "never returned") {
		t.Fatalf("audit of a stuck fetch: %q", joined)
	}
	d.complete(0x5000)
	a = &check.Audit{}
	p.Audit(a)
	if !a.OK() {
		t.Fatalf("audit after the fill: %q", a.Violations())
	}
}

func TestPTECacheContainsPendingLen(t *testing.T) {
	p := NewPTECache()
	d := &deferredFetch{done: map[mem.Addr]func(){}}
	p.Obtain(0x4010, d.fetch(0x4000), func() {})
	if !p.Pending(0x4038) || p.Contains(0x4000) || p.Len() != 0 {
		t.Fatal("in-flight line must be pending, not resident")
	}
	d.complete(0x4000)
	if p.Pending(0x4000) || !p.Contains(0x403f) || p.Len() != 1 {
		t.Fatal("filled line must be resident, not pending")
	}
	// Fill to capacity; Contains must not refresh LRU, so line 0x4000
	// stays the oldest and is the one the 17th fill displaces.
	for i := 1; i < 16; i++ {
		line := mem.Addr(0x4000 + i*mem.LineSize)
		p.Obtain(line, d.fetch(line), func() {})
		d.complete(line)
		p.Contains(0x4000)
	}
	if p.Len() != 16 {
		t.Fatalf("Len = %d at capacity, want 16", p.Len())
	}
	line := mem.Addr(0x4000 + 16*mem.LineSize)
	p.Obtain(line, d.fetch(line), func() {})
	d.complete(line)
	if p.Len() != 16 || p.Contains(0x4000) || !p.Contains(line) {
		t.Fatal("17th fill did not displace the least recently used line")
	}
}

// refPTECache is the map-based LRU the PTE-line cache must match.
type refPTECache struct {
	capacity int
	lines    map[mem.Addr]uint64
	tick     uint64
}

func (r *refPTECache) touch(line mem.Addr) {
	r.tick++
	r.lines[line] = r.tick
}

func (r *refPTECache) fill(line mem.Addr) {
	if _, ok := r.lines[line]; !ok && len(r.lines) >= r.capacity {
		var victim mem.Addr
		oldest := ^uint64(0)
		for l, stamp := range r.lines {
			if stamp < oldest {
				victim, oldest = l, stamp
			}
		}
		delete(r.lines, victim)
	}
	r.touch(line)
}

// TestPTECacheLRUMatchesReference: over a random mix of Obtains and fill
// completions at capacity 16, the resident set always equals a map-based
// LRU reference's, so the cache evicts exactly the least recently used
// line.
func TestPTECacheLRUMatchesReference(t *testing.T) {
	const universe = 40
	rng := rand.New(rand.NewSource(7))
	p := NewPTECache()
	ref := &refPTECache{capacity: 16, lines: map[mem.Addr]uint64{}}
	d := &deferredFetch{done: map[mem.Addr]func(){}}
	lineOf := func(i int) mem.Addr { return mem.Addr(i * mem.LineSize) }
	for op := 0; op < 20000; op++ {
		if len(d.done) > 0 && rng.Intn(3) == 0 {
			// Complete one in-flight fill, chosen deterministically.
			var line mem.Addr = ^mem.Addr(0)
			for l := range d.done {
				if l < line {
					line = l
				}
			}
			d.complete(line)
			ref.fill(line)
		} else {
			line := lineOf(rng.Intn(universe))
			_, resident := ref.lines[line]
			if resident {
				ref.touch(line)
			}
			want := resident || d.done[line] != nil
			if served := p.Obtain(line, d.fetch(line), func() {}); served != want {
				t.Fatalf("op %d: Obtain(%#x) served=%v, want %v", op, line, served, want)
			}
		}
		if p.Len() != len(ref.lines) {
			t.Fatalf("op %d: Len = %d, reference %d", op, p.Len(), len(ref.lines))
		}
		for i := 0; i < universe; i++ {
			_, want := ref.lines[lineOf(i)]
			if p.Contains(lineOf(i)) != want {
				t.Fatalf("op %d: Contains(%#x) = %v, reference %v", op, lineOf(i), !want, want)
			}
		}
	}
}
