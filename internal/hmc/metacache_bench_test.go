package hmc

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// fixedIssue answers every DRAM line request after 100 cycles and records
// nothing, so it allocates nothing once the event queue has grown.
func fixedIssue(sim *engine.Sim) IssueFunc {
	return func(_ mem.Addr, _ bool, _ Priority, done func()) {
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
	sim  *engine.Sim
	c    *MetaCache
	x    uint64 // LCG state
	done func()
}

func newMetaLoop() *metaLoop {
	sim := engine.New()
	cfg := MetaCacheConfig{Name: "PRTc", Entries: 851, Ways: 4, HitLatency: 2, EntriesPerLine: 18}
	region := MetaRegion{Base: 0, Bytes: 1 << 20, EntrySize: 4}
	return &metaLoop{
		sim:  sim,
		c:    NewMetaCache(sim, cfg, region, fixedIssue(sim)),
		x:    1,
		done: func() {},
	}
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
		l.c.Access(key, dirty, l.done)
		if i&3 == 3 {
			l.sim.Drain(0)
		}
	}
	l.sim.Drain(0)
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
