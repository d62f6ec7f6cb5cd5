package hmc

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
)

// swapLoopOps is the number of concurrent ops the loops keep running: the
// default engine's MaxOps.
const swapLoopOps = 8

// swapLoopMove returns the i-th loop move: a 4KB page exchange between
// DRAM page i and an NVM page 256MB above it.
func swapLoopMove(i int) Move {
	d := mem.Addr(i) * mem.PageSize
	return pairMove(d, d+256<<20)
}

// tryLoop holds eight 4KB swaps running forever: line reads return after
// 100 cycles but line writes never do, so every line ends up buffered and
// no op completes. probes are 1,024 demand line addresses, one in 16 on a
// running op's line and the rest on uninvolved lines around them, the mix
// a demand stream sees while swaps are in flight.
type tryLoop struct {
	sim    *engine.Sim
	e      *SwapEngine
	probes []mem.Addr
	done   func()
}

func newTryLoop(tb testing.TB) *tryLoop {
	sim := engine.New()
	issue := func(_ mem.Addr, write bool, _ memsim.Priority, done func()) {
		if !write && done != nil {
			sim.After(100, done)
		}
	}
	l := &tryLoop{sim: sim, e: NewSwapEngine(sim, issue, nil), done: func() {}}
	for i := 0; i < swapLoopOps; i++ {
		if !l.e.Start(swapLoopMove(i), noHook) {
			tb.Fatal("Start rejected below MaxOps")
		}
	}
	sim.Drain(0)
	x := uint64(1)
	for i := 0; i < 1024; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		line := mem.Addr(x>>40%(2*swapLoopOps*mem.LinesPerPage)) * mem.LineSize
		if i%16 != 0 {
			line += 64 << 20 // uninvolved: between the DRAM and NVM pages
		}
		l.probes = append(l.probes, line)
	}
	return l
}

// run issues n probes, draining the buffer-hit completions every 64.
func (l *tryLoop) run(n int) {
	for i := 0; i < n; i++ {
		l.e.TryService(l.probes[i&1023], nil, l.done)
		if i&63 == 63 {
			l.sim.Drain(0)
		}
	}
	l.sim.Drain(0)
}

// BenchmarkSwapEngineTryService: one demand interception check with eight
// 4KB ops running, mostly on uninvolved lines.
func BenchmarkSwapEngineTryService(b *testing.B) {
	l := newTryLoop(b)
	l.run(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	l.run(b.N)
}

// TestZeroAllocTryService: with eight ops running, interception checks —
// uninvolved lines and buffer hits — allocate nothing.
func TestZeroAllocTryService(t *testing.T) {
	l := newTryLoop(t)
	for i := 0; i < 1000; i++ {
		l.run(1_024) // past every phase of the event wheel
	}
	before := l.e.Stats().BufHits
	if allocs := testing.AllocsPerRun(10, func() { l.run(1_024) }); allocs != 0 {
		t.Fatalf("steady-state TryService allocates %.1f times per 1024 probes, want 0", allocs)
	}
	if l.e.Stats().BufHits == before || l.e.Busy() != swapLoopOps {
		t.Fatalf("the probes hit no buffered line or ops finished: %+v", l.e.Stats())
	}
}

// TestZeroAllocSwapCycle: once warmed, a whole cycle — eight ops start,
// demand requests park on unissued and issued lines of each, every read
// and write returns and the ops complete — allocates nothing: the swap
// records, with their lines and waiter arrays, come from the engine's
// pool, and the interception table has grown to its working size.
func TestZeroAllocSwapCycle(t *testing.T) {
	sim := engine.New()
	e := NewSwapEngine(sim, fixedIssue(sim), nil)
	done := func() {}
	cycle := func() {
		for i := 0; i < swapLoopOps; i++ {
			if !e.Start(swapLoopMove(i), noHook) {
				t.Fatal("Start rejected below MaxOps")
			}
			base := mem.Addr(i) * mem.PageSize
			// Line 0 was issued by Start's pump; the last line of the NVM
			// page waits behind the in-flight cap, unissued.
			e.TryService(base, nil, done)
			e.TryService(base, nil, done)
			e.TryService(base+256<<20+mem.PageSize-mem.LineSize, nil, done)
		}
		sim.Drain(0)
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	before := e.Stats()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("steady-state swap cycle allocates %.1f times, want 0", allocs)
	}
	st := e.Stats()
	if st.OpsCompleted-before.OpsCompleted < 10*swapLoopOps || st.BufWaits == before.BufWaits || st.EscalatedRead == before.EscalatedRead {
		t.Fatalf("the cycles completed, parked or escalated nothing: %+v", st)
	}
	if e.Busy() != 0 || e.lineOwner.Len() != 0 {
		t.Fatalf("%d op(s) and %d intercepted line(s) left after the cycles", e.Busy(), e.lineOwner.Len())
	}
}
