package hmc

import (
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
)

// fixedIssue answers every DRAM line request after 100 cycles and records
// nothing, so it allocates nothing once the event queue has grown.
func fixedIssue(sim *engine.Sim) IssueFunc {
	return func(_ mem.Addr, _ bool, _ memsim.Priority, done func()) {
		if done != nil {
			sim.After(100, done)
		}
	}
}

// metaLoop streams keys at a PRTc of the geometry a scale-128 run builds
// (core.DefaultConfig().Scale(128): 851 entries, 4 ways, 18 entries per
// DRAM line). Keys are drawn from a table 64 times the cache's reach, so
// nearly every access misses and its line fill evicts 18 entries; a
// quarter of the accesses dirty their entry, so evictions write back.
type metaLoop struct {
	sim     *engine.Sim
	c       *MetaCache
	x       uint64 // LCG state
	line    uint64 // runMerging's current DRAM line
	fetches uint64 // line reads issued
	done    func()
}

func newMetaLoop() *metaLoop {
	sim := engine.New()
	cfg := MetaCacheConfig{Name: "PRTc", Entries: 851, Ways: 4, HitLatency: 2, EntriesPerLine: 18}
	region := MetaRegion{Base: 0, Bytes: 1 << 20, EntrySize: 4}
	l := &metaLoop{sim: sim, x: 1, done: func() {}}
	issue := fixedIssue(sim)
	l.c = NewMetaCache(sim, cfg, region, func(a mem.Addr, write bool, prio memsim.Priority, done func()) {
		if !write {
			l.fetches++
		}
		issue(a, write, prio, done)
	})
	return l
}

// step draws the next key and whether the access dirties it.
func (l *metaLoop) step() (uint64, bool) {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	return l.x >> 32 % (64 * 851), l.x>>62 == 0
}

// runFunctional issues n accesses through the fast-forward path.
func (l *metaLoop) runFunctional(n int) {
	for i := 0; i < n; i++ {
		key, dirty := l.step()
		l.c.AccessFunctional(key, dirty)
	}
}

// runDetailed issues n accesses through the timed path, four in flight
// between drains.
func (l *metaLoop) runDetailed(n int) {
	for i := 0; i < n; i++ {
		key, dirty := l.step()
		l.c.Access(key, dirty, nil, l.done)
		if i&3 == 3 {
			l.sim.Drain(0)
		}
	}
	l.sim.Drain(0)
}

// runMerging issues n timed accesses in groups of four to one DRAM line
// (keys 5 apart among its 18), four groups between drains. The first
// access of a group nearly always misses and fetches the line; the other
// three probe the SRAM in the same cycle, miss too, and merge into that
// pending fetch.
func (l *metaLoop) runMerging(n int) {
	for i := 0; i < n; i++ {
		if i&3 == 0 {
			l.x = l.x*6364136223846793005 + 1442695040888963407
			l.line = l.x >> 32 % (64 * 851 / 18)
		}
		l.c.Access(l.line*18+uint64(i&3)*5, i&7 == 0, nil, l.done)
		if i&15 == 15 {
			l.sim.Drain(0)
		}
	}
	l.sim.Drain(0)
}

// BenchmarkMetaCacheTimedMiss: one timed access, nearly always a miss, three
// in four of them merging into a pending line fetch.
func BenchmarkMetaCacheTimedMiss(b *testing.B) {
	l := newMetaLoop()
	l.runMerging(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	l.runMerging(b.N)
}

// TestZeroAllocMetaCacheMerge: once warmed, misses that merge into a
// pending line fetch allocate nothing: the waiters park on the pooled
// fetch record.
func TestZeroAllocMetaCacheMerge(t *testing.T) {
	l := newMetaLoop()
	for i := 0; i < 100; i++ {
		l.runMerging(1_024)
	}
	st, fetches := l.c.Stats(), l.fetches
	if allocs := testing.AllocsPerRun(10, func() { l.runMerging(1_024) }); allocs != 0 {
		t.Fatalf("steady-state merging misses allocate %.1f times per 1024 accesses, want 0", allocs)
	}
	misses, fetched := l.c.Stats().Misses-st.Misses, l.fetches-fetches
	if merged := misses - fetched; merged < misses/2 {
		t.Fatalf("%d misses issued %d line fetches: too few merged", misses, fetched)
	}
	a := &check.Audit{}
	l.c.Audit(a)
	if !a.OK() {
		t.Fatalf("drained cache fails its audit: %q", a.Violations())
	}
}

// BenchmarkMetaCacheFunctionalMiss: one fast-forward access, nearly always
// a miss that installs a whole 18-entry line.
func BenchmarkMetaCacheFunctionalMiss(b *testing.B) {
	l := newMetaLoop()
	l.runFunctional(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	l.runFunctional(b.N)
}

// TestZeroAllocMetaCache: once warmed, the timed path (probe, line fetch,
// line fill with dirty writebacks) and the fast-forward path allocate
// nothing.
func TestZeroAllocMetaCache(t *testing.T) {
	l := newMetaLoop()
	l.runDetailed(100_000)
	l.c.ResetStats()
	if allocs := testing.AllocsPerRun(10, func() { l.runDetailed(1_000) }); allocs != 0 {
		t.Fatalf("steady-state Access allocates %.1f times per 1000 accesses, want 0", allocs)
	}
	if st := l.c.Stats(); st.Hits == 0 || st.Misses == 0 || st.Writebacks == 0 {
		t.Fatalf("the steady-state stream left %+v; it must hit, miss and write back", st)
	}
	if allocs := testing.AllocsPerRun(10, func() { l.runFunctional(1_000) }); allocs != 0 {
		t.Fatalf("steady-state AccessFunctional allocates %.1f times per 1000 accesses, want 0", allocs)
	}
}
