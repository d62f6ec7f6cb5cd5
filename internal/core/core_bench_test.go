package core

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// evictLoop is a steady stream of leader changes from four pids over a
// full 128-entry Filter: every pid cycles through more pages than the
// Filter holds, so every new invocation evicts an entry, and the PCT
// stops growing once each page has been seen.
type evictLoop struct {
	c    *Correlator
	next [4]mem.PPN
}

func newEvictLoop(tb testing.TB) *evictLoop {
	cfg := DefaultConfig()
	if cfg.FilterEntries != 128 {
		tb.Fatalf("FilterEntries = %d, want the 128 of Table II", cfg.FilterEntries)
	}
	l := &evictLoop{c: NewCorrelator(cfg, evictLoopPages, nil)}
	l.run(4 * 512 * 2) // every page once: fills the Filter and the PCT
	return l
}

// evictLoopPages is the loop's physical page range: 512 pages per pid.
const evictLoopPages = 4 << 9

// run issues n invocations, each a leader change that the default
// two-miss debounce accepts.
func (l *evictLoop) run(n int) {
	for i := 0; i < n; i++ {
		pid := i & 3
		page := mem.PPN(pid)<<9 | l.next[pid]
		l.next[pid] = (l.next[pid] + 1) & 511
		l.c.OnMiss(pid+1, page)
		l.c.OnMiss(pid+1, page)
	}
}

func BenchmarkCorrelatorOnMissEvict(b *testing.B) {
	l := newEvictLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	l.run(b.N)
}

// TestZeroAllocCorrelator: steady-state OnMiss, evictions included,
// recycles Filter entries and allocates nothing.
func TestZeroAllocCorrelator(t *testing.T) {
	l := newEvictLoop(t)
	before := l.c.Stats().Writebacks
	if allocs := testing.AllocsPerRun(10, func() { l.run(1_000) }); allocs != 0 {
		t.Fatalf("steady-state OnMiss allocates %.1f times per 1000 invocations, want 0", allocs)
	}
	if l.c.Stats().Writebacks == before {
		t.Fatal("the steady-state stream evicted nothing")
	}
}

// BenchmarkPTECacheObtain: a 16-line PTE cache under a stream over 24
// lines with fills that complete at once, so Obtain mixes hits with
// misses that evict the least recently used line.
func BenchmarkPTECacheObtain(b *testing.B) {
	p := NewPTECache()
	lines := make([]mem.Addr, 1024)
	x := uint32(1)
	for i := range lines {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		lines[i] = mem.Addr(x%24) * mem.LineSize
	}
	fetch := func(done func()) { done() }
	ready := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Obtain(lines[i&1023], fetch, ready)
	}
}

// TestZeroAllocPTECacheMerge: once warmed, an Obtain that misses, the
// Obtains that merge into its pending fetch, the fill that wakes them and
// the eviction it makes allocate nothing: waiters park on the pooled fill
// record. Each round fetches 4 of 24 lines into the 16-line cache and
// merges three more Obtains into each fetch before completing it.
func TestZeroAllocPTECacheMerge(t *testing.T) {
	p := NewPTECache()
	var fills []func()
	fetch := func(done func()) { fills = append(fills, done) }
	ready := func() {}
	next := 0
	round := func() {
		for i := 0; i < 4; i++ {
			line := mem.Addr(next%24) * mem.LineSize
			next += 7
			for j := 0; j < 4; j++ {
				p.Obtain(line, fetch, ready)
			}
		}
		for i, f := range fills {
			f()
			fills[i] = nil
		}
		fills = fills[:0]
	}
	for i := 0; i < 100; i++ {
		round()
	}
	misses, merged := p.Misses(), p.PendingHits()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state Obtain with merges allocates %.1f times per round, want 0", allocs)
	}
	if p.Misses() == misses || p.PendingHits()-merged < 3*(p.Misses()-misses) {
		t.Fatalf("rounds missed %d times with %d merges; every miss must take three",
			p.Misses()-misses, p.PendingHits()-merged)
	}
	if p.pending.Len() != 0 {
		t.Fatalf("%d fetch(es) left pending", p.pending.Len())
	}
}

// hptLoop touches a full 1,024-entry HPT (the Table II size) with pages it
// has not seen for 2^20 touches, so every Touch evicts the coldest entry and
// inserts a new one. Counts stay tied at 1, so each eviction takes the lowest-PPN
// tie-break.
type hptLoop struct {
	h    *HPT
	next mem.PPN
}

func newHPTLoop(tb testing.TB) *hptLoop {
	cfg := DefaultConfig()
	if cfg.HPTEntries != 1024 {
		tb.Fatalf("HPTEntries = %d, want the 1024 of Table II", cfg.HPTEntries)
	}
	l := &hptLoop{h: NewHPT(engine.New(), 0, cfg.HPTEntries, cfg.CounterMax, hptLoopPages)}
	l.run(cfg.HPTEntries)
	return l
}

// hptLoopPages is the loop's physical page range: 4GB of 4KB pages.
const hptLoopPages = 1 << 20

// run touches n new pages, scattered so consecutive PPNs are far apart (an
// odd multiplier permutes the range, so a page recurs only after 2^20).
func (l *hptLoop) run(n int) {
	for i := 0; i < n; i++ {
		l.h.Touch(l.next * 0x9e3779b1 & (hptLoopPages - 1))
		l.next++
	}
}

func BenchmarkHPTTouchFull(b *testing.B) {
	l := newHPTLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	l.run(b.N)
}

// TestZeroAllocHPT: once full, a Touch that evicts and inserts allocates
// nothing, and the table stays at capacity.
func TestZeroAllocHPT(t *testing.T) {
	l := newHPTLoop(t)
	l.run(100_000)
	if allocs := testing.AllocsPerRun(10, func() { l.run(1_000) }); allocs != 0 {
		t.Fatalf("steady-state Touch allocates %.1f times per 1000 inserts, want 0", allocs)
	}
	if n := l.h.Len(); n != 1024 {
		t.Fatalf("Len = %d after the stream, want the full 1024", n)
	}
}
