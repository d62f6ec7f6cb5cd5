package cache

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// fixedMem answers every line request after a fixed latency and records
// nothing, so it allocates nothing once the event queue has grown.
type fixedMem struct {
	sim     *engine.Sim
	latency uint64
}

func (f fixedMem) Access(l mem.Addr, write bool, meta Meta, done func()) {
	if done != nil {
		f.sim.After(f.latency, done)
	}
}

func (fixedMem) AccessFunctional(mem.Addr, bool, Meta) {}

// missLoop drives the Table I L1 -> L2 -> L3 chain over a 200-cycle
// memory. The 8MB L3 keeps the tag store far larger than the host's own
// caches, as in a full run. Half the lines come from a 128KB hot region
// that L2 holds, half from a 64MB region that misses L3; a quarter of the
// accesses write, so evictions write back at every level. Detailed runs
// keep depth accesses in flight as a closed loop: each completion issues
// the next one, so misses overlap and sometimes merge.
type missLoop struct {
	sim    *engine.Sim
	levels [3]*Cache // L1, L2, L3
	x      uint64    // LCG state
	done   uint64    // completions so far
	refill []func()
}

func newMissLoop() *missLoop {
	sim := engine.New()
	l3 := New(sim, L3Config(), fixedMem{sim, 200})
	l2 := New(sim, L2Config(), l3)
	l1 := New(sim, L1Config(), l2)
	return &missLoop{sim: sim, levels: [3]*Cache{l1, l2, l3}, x: 1}
}

// step draws the next access from the stream.
func (l *missLoop) step() (mem.Addr, bool) {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	lineNo := l.x >> 36 & (64<<20/mem.LineSize - 1)
	if l.x>>63 == 0 {
		lineNo &= 128<<10/mem.LineSize - 1
	}
	return mem.Addr(lineNo << mem.LineShift), l.x>>61&3 == 0
}

// start puts depth accesses in flight.
func (l *missLoop) start(depth int) {
	l.refill = make([]func(), depth)
	for i := range l.refill {
		l.refill[i] = func() {
			l.done++
			l.issue(l.refill[i])
		}
	}
	for _, fn := range l.refill {
		l.issue(fn)
	}
}

func (l *missLoop) issue(done func()) {
	addr, write := l.step()
	l.levels[0].Access(addr, write, Meta{}, done)
}

// run steps the engine until n more accesses have completed.
func (l *missLoop) run(n uint64) {
	for target := l.done + n; l.done < target; {
		l.sim.Step()
	}
}

// runFunctional issues n accesses through the functional path.
func (l *missLoop) runFunctional(n int) {
	for i := 0; i < n; i++ {
		addr, write := l.step()
		l.levels[0].AccessFunctional(addr, write, Meta{})
	}
}

// newDetailedLoop returns a missLoop with 8 accesses in flight, warmed until
// every level is full and the record pools, the MSHR tables and the event
// queue have reached their steady-state size.
func newDetailedLoop() *missLoop {
	l := newMissLoop()
	l.start(8)
	l.run(600_000)
	return l
}

// BenchmarkCacheMissFill: one access through the detailed path, from L1
// lookup to the fills that complete it, with misses outstanding at every
// level.
func BenchmarkCacheMissFill(b *testing.B) {
	l := newDetailedLoop()
	b.ReportAllocs()
	b.ResetTimer()
	l.run(uint64(b.N))
}

// BenchmarkCacheFunctional: the same stream through the functional
// fast-forward path.
func BenchmarkCacheFunctional(b *testing.B) {
	l := newMissLoop()
	l.runFunctional(600_000)
	b.ReportAllocs()
	b.ResetTimer()
	l.runFunctional(b.N)
}

// TestZeroAllocCacheMiss: once warmed, the detailed miss/fill path (tag
// lookups, MSHR allocation, merge and release, installs and writebacks)
// allocates nothing.
func TestZeroAllocCacheMiss(t *testing.T) {
	l := newDetailedLoop()
	for _, c := range l.levels {
		c.ResetStats()
	}
	if allocs := testing.AllocsPerRun(10, func() { l.run(1_000) }); allocs != 0 {
		t.Fatalf("steady-state miss/fill allocates %.1f times per 1000 accesses, want 0", allocs)
	}
	merges := uint64(0)
	for _, c := range l.levels {
		st := c.Stats()
		if st.Misses == 0 || st.Writebacks == 0 {
			t.Fatalf("%s: the steady-state stream left %+v; every level must miss and write back", c.Config().Name, st)
		}
		merges += st.MSHRMerges
	}
	if merges == 0 {
		t.Fatal("the steady-state stream never merged into an outstanding miss")
	}
}
