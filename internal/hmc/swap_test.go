package hmc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
)

// recordingIssuer services line traffic with a fixed latency and records it.
type recordingIssuer struct {
	sim     *engine.Sim
	latency uint64
	reads   int
	writes  int
	demand  int
}

func (ri *recordingIssuer) issue(addr mem.Addr, write bool, prio memsim.Priority, done func()) {
	if write {
		ri.writes++
	} else {
		ri.reads++
	}
	if prio == memsim.PrioDemand {
		ri.demand++
	}
	ri.sim.After(ri.latency, func() {
		if done != nil {
			done()
		}
	})
}

func testEngine(latency uint64) (*engine.Sim, *SwapEngine, *recordingIssuer) {
	sim := engine.New()
	ri := &recordingIssuer{sim: sim, latency: latency}
	e := NewSwapEngine(sim, ri.issue, nil)
	return sim, e, ri
}

// pageMove returns a 4KB move of the given shape over the pages at src,
// dst and (read by a Slow only) home, identity-mapped: the data is src's
// own page and the victim is the unit at home.
func pageMove(shape int, src, dst, home mem.Addr) Move {
	unit := func(a mem.Addr) Seg { return Seg(a >> mem.PageShift) }
	return Move{Shape: shape, Data: unit(src), Src: unit(src), Dst: unit(dst), Victim: unit(home), Shift: mem.PageShift}
}

// pairMove returns a Pair exchanging the 4KB pages at a and b.
func pairMove(a, b mem.Addr) Move { return pageMove(Pair, a, b, b) }

// noHook is a completion hook that ignores the move.
func noHook(Move) {}

// marks returns a completion hook that sets *done.
func marks(done *bool) func(Move) { return func(Move) { *done = true } }

func TestFastSwapMovesAllLines(t *testing.T) {
	sim, e, ri := testEngine(10)
	done := false
	if !e.Start(pairMove(0, 0x100000), marks(&done)) {
		t.Fatal("Start rejected with empty engine")
	}
	sim.Drain(0)
	if !done {
		t.Fatal("op never completed")
	}
	if ri.reads != 2*mem.LinesPerPage || ri.writes != 2*mem.LinesPerPage {
		t.Fatalf("traffic = %d reads %d writes, want %d/%d",
			ri.reads, ri.writes, 2*mem.LinesPerPage, 2*mem.LinesPerPage)
	}
	st := e.Stats()
	if st.OpsStarted != 1 || st.OpsCompleted != 1 {
		t.Fatalf("op stats = %+v", st)
	}
}

// Figure 5's optimized slow swap over DRAM slot d, the NVM slot n2 of the
// page d's victim comes from, and the NVM slot n3 of the incoming page.
const (
	slowD  = mem.Addr(0)
	slowN2 = mem.Addr(0x200000)
	slowN3 = mem.Addr(0x300000)
)

func TestOptimizedSlowSwapCost(t *testing.T) {
	// Figure 5: 3 page reads and 3 page writes, in two stages.
	sim, e, ri := testEngine(10)
	completed := false
	e.Start(pageMove(Slow, slowN3, slowD, slowN2), marks(&completed))
	sim.Drain(0)
	if !completed {
		t.Fatal("op never completed")
	}
	if ri.reads != 3*mem.LinesPerPage || ri.writes != 3*mem.LinesPerPage {
		t.Fatalf("traffic = %d/%d lines, want %d/%d",
			ri.reads, ri.writes, 3*mem.LinesPerPage, 3*mem.LinesPerPage)
	}
}

func TestStageBarrier(t *testing.T) {
	// No access of the second stage (the incoming page's reads, the writes
	// into d and the buffer's drain into n3) may issue before every access
	// of the first (the reads of d and n2, the writes home into n2) has
	// returned. The writes home are slow, so the first stage ends on a
	// write, long after its last read.
	sim := engine.New()
	page := func(a mem.Addr) mem.Addr { return a &^ (mem.PageSize - 1) }
	var lastFirst uint64
	firstIssue, drained := ^uint64(0), 0
	issue := func(addr mem.Addr, write bool, prio memsim.Priority, done func()) {
		p := page(addr)
		if first := !write && p != slowN3 || write && p == slowN2; first {
			lat := uint64(5)
			if write {
				lat = 500
			}
			sim.After(lat, func() {
				lastFirst = sim.Now()
				done()
			})
			return
		}
		firstIssue = min(firstIssue, sim.Now())
		if write && p == slowN3 {
			drained++
		}
		sim.After(5, done)
	}
	e := NewSwapEngine(sim, issue, nil)
	e.Start(pageMove(Slow, slowN3, slowD, slowN2), noHook)
	sim.Drain(0)
	if firstIssue < lastFirst {
		t.Fatal("stage-2 access issued before stage 1 completed")
	}
	if drained != mem.LinesPerPage {
		t.Fatalf("drain wrote %d lines, want %d", drained, mem.LinesPerPage)
	}
}

func TestCapacityRejection(t *testing.T) {
	sim, e, _ := testEngine(1000)
	for i := 0; i < MaxOps; i++ {
		if !e.Start(pairMove(mem.Addr(i)<<20, mem.Addr(i+100)<<20), noHook) {
			t.Fatalf("op %d rejected below capacity", i)
		}
	}
	if e.Start(pairMove(0x70000000, 0x7F000000), noHook) {
		t.Fatal("op admitted beyond capacity")
	}
	if e.Stats().OpsRejected != 1 {
		t.Fatalf("OpsRejected = %d", e.Stats().OpsRejected)
	}
	sim.Drain(0)
	if !e.CanStart() {
		t.Fatal("engine still full after drain")
	}
}

func TestBufferServiceDuringSwap(t *testing.T) {
	sim, e, _ := testEngine(50)
	e.Start(pairMove(0, 0x100000), noHook)
	// Demand for a line of the page being swapped must be intercepted.
	served := false
	if !e.TryService(0x40, nil, func() { served = true }) {
		t.Fatal("demand to in-flight page not intercepted")
	}
	sim.Drain(0)
	if !served {
		t.Fatal("intercepted demand never serviced")
	}
	st := e.Stats()
	if st.BufHits+st.BufWaits == 0 {
		t.Fatal("no buffer service recorded")
	}
}

func TestTryServiceIgnoresUninvolvedLines(t *testing.T) {
	sim, e, _ := testEngine(50)
	e.Start(pairMove(0, 0x100000), noHook)
	if e.TryService(0x5000000, nil, func() {}) {
		t.Fatal("intercepted a line outside the swap")
	}
	sim.Drain(0)
	if e.Involved(0x40) {
		t.Fatal("lines still marked involved after completion")
	}
}

// TestOverlappingStartPanics: a move that reads a line a running swap
// already reads — another swap's, or its own twice — panics, since no
// scheme may start one (every slot a shape reads is busy-checked).
func TestOverlappingStartPanics(t *testing.T) {
	page := func(n int) mem.Addr { return mem.Addr(n) * mem.PageSize }
	for _, c := range []struct {
		name string
		m    Move
	}{
		{"another swap's source", pairMove(page(0), page(200))},
		{"another swap's destination", pairMove(page(200), page(100))},
		{"a Slow's victim home", pageMove(Slow, page(201), page(202), page(100))},
		{"its own line twice", pairMove(page(300), page(300))},
	} {
		_, e, _ := testEngine(10)
		if !e.Start(pairMove(page(0), page(100)), noHook) {
			t.Fatal("Start rejected with an empty engine")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a move reading %s did not panic", c.name)
				}
			}()
			e.Start(c.m, noHook)
		}()
	}
}

func TestDemandEscalationPromotesRead(t *testing.T) {
	sim, e, ri := testEngine(50)
	e.Start(pairMove(0, 0x100000), noHook)
	// The last line of the page is deep in the issue order; demanding it
	// must escalate its read to demand priority.
	lastLine := mem.Addr(mem.PageSize - mem.LineSize)
	served := false
	e.TryService(lastLine, nil, func() { served = true })
	sim.Drain(0)
	if !served {
		t.Fatal("escalated demand not serviced")
	}
	if e.Stats().EscalatedRead != 1 {
		t.Fatalf("EscalatedRead = %d, want 1", e.Stats().EscalatedRead)
	}
	if ri.demand == 0 {
		t.Fatal("no demand-priority line issued")
	}
}

// Property: any mix of running moves — random shapes, units and disjoint
// slots — completes, each hook sees its move with its identity stamped,
// and the line traffic is exactly the shapes' cost: 2 units read and
// written per Pair or Restore, 3 per Slow.
func TestOpCompletionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim, e, ri := testEngine(uint64(rng.Intn(40) + 1))
		shift := uint(11)
		if rng.Intn(2) == 0 {
			shift = mem.PageShift
		}
		next := Seg(rng.Intn(16))
		slot := func() Seg {
			next += Seg(rng.Intn(4) + 1)
			return next
		}
		units, completed := 0, uint64(0)
		for i := rng.Intn(MaxOps) + 1; i > 0; i-- {
			m := Move{Shape: rng.Intn(3), Src: slot(), Dst: slot(), Victim: slot(), Shift: shift}
			m.Data = m.Src
			units += 2
			if m.Shape == Slow {
				units++
			}
			want := m
			if !e.Start(m, func(got Move) {
				if got.Why.Addr == uint64(want.Data)<<shift && got.Why.Victim == uint64(want.Victim)<<shift && got.Why.ID != 0 {
					completed++
				}
			}) {
				return false
			}
		}
		sim.Drain(0)
		lines := units << shift / mem.LineSize
		return completed == e.Stats().OpsStarted && ri.reads == lines && ri.writes == lines &&
			e.Busy() == 0 && e.lineOwner.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving demand interceptions with a running swap never
// loses a request: every TryService=true done callback fires by drain.
func TestInterceptionAlwaysCompletesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim, e, _ := testEngine(uint64(rng.Intn(80) + 5))
		e.Start(pairMove(0, 0x100000), noHook)
		want, got := 0, 0
		for i := 0; i < 50; i++ {
			line := mem.Addr(rng.Intn(2*mem.PageSize)) & ^mem.Addr(63)
			if line >= mem.PageSize {
				line = 0x100000 + (line - mem.PageSize)
			}
			if e.TryService(line, nil, func() { got++ }) {
				want++
			}
			if rng.Intn(3) == 0 {
				sim.RunUntil(sim.Now() + uint64(rng.Intn(100)))
			}
		}
		sim.Drain(0)
		return want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
