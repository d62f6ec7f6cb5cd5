package memsim

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// loadLoop is a closed loop over one module: every completion enqueues a
// replacement of the same class, so a fixed number of requests stays in
// flight. Addresses come from an LCG over four rows per bank, so the stream
// mixes row hits with conflicts and keeps no RNG state that allocates.
type loadLoop struct {
	sim    *engine.Sim
	m      *Module
	x      uint64 // LCG state
	lines  uint64 // lines in the addressed region
	done   uint64 // completions so far
	refill []func()
}

// newLoadLoop keeps depth requests in flight on a module of cfg; slot i is
// demand when i%demandEvery == 0 and swap otherwise.
func newLoadLoop(cfg Config, depth, demandEvery int) *loadLoop {
	sim := engine.New()
	l := &loadLoop{sim: sim, m: New(sim, cfg, 0, 64<<20), x: 1}
	l.lines = uint64(cfg.Channels) * cfg.RowBytes / mem.LineSize * uint64(cfg.BanksPerRank*cfg.RanksPerChannel) * 4
	l.refill = make([]func(), depth)
	for i := range l.refill {
		prio := PrioSwap
		if i%demandEvery == 0 {
			prio = PrioDemand
		}
		l.refill[i] = func() {
			l.done++
			l.access(prio, l.refill[i])
		}
	}
	for i, fn := range l.refill {
		prio := PrioSwap
		if i%demandEvery == 0 {
			prio = PrioDemand
		}
		l.access(prio, fn)
	}
	return l
}

func (l *loadLoop) access(prio Priority, done func()) {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	line := (l.x >> 24) % l.lines
	l.m.Access(mem.Addr(line*mem.LineSize), (l.x>>60)&3 == 0, prio, nil, done)
}

// run steps the engine until n more requests have completed.
func (l *loadLoop) run(n uint64) {
	for target := l.done + n; l.done < target; {
		l.sim.Step()
	}
}

func benchSchedule(b *testing.B, cfg Config, depth, demandEvery int) {
	l := newLoadLoop(cfg, depth, demandEvery)
	l.run(20_000) // lists, record pool and event queue at capacity
	b.ReportAllocs()
	b.ResetTimer()
	l.run(uint64(b.N))
}

// BenchmarkMemsimScheduleDemand: demand-only traffic on the Table I DRAM
// (4 channels), 32 requests in flight: the scheduler when queues are short.
func BenchmarkMemsimScheduleDemand(b *testing.B) { benchSchedule(b, DRAMConfig(), 32, 1) }

// BenchmarkMemsimScheduleSwapBacklog: one Table I NVM channel kept 200 deep,
// three swap requests to each demand one: the backlog PageSeer's swaps
// build on NVM, which a scheduler that rescans its queue pays for on every
// commit.
func BenchmarkMemsimScheduleSwapBacklog(b *testing.B) {
	cfg := NVMConfig()
	cfg.Channels = 1
	benchSchedule(b, cfg, 200, 4)
}

// TestZeroAllocMemsimSteadyState: once the class lists, the record pool and
// the event queue have grown to the backlog's size, an access (enqueue,
// pick, commit, completion) allocates nothing.
func TestZeroAllocMemsimSteadyState(t *testing.T) {
	cfg := NVMConfig()
	cfg.Channels = 1
	l := newLoadLoop(cfg, 200, 4)
	l.run(20_000)
	if allocs := testing.AllocsPerRun(10, func() { l.run(1_000) }); allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f times per 1000 accesses, want 0", allocs)
	}
}
