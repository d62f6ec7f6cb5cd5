package mempod

import (
	"math/rand"
	"testing"

	"pageseer/internal/mem"
)

// BenchmarkMemPodTranslateLine: the per-request translation on the test
// rig after an interval's migrations, over lines spread across all of
// memory.
func BenchmarkMemPodTranslateLine(b *testing.B) {
	sim, ctl, m := testRig()
	for i := 0; i < 32; i++ {
		for j := 0; j < 4; j++ {
			miss(sim, ctl, nvmSeg(ctl, 8*i))
		}
	}
	sim.RunUntil(sim.Now() + 2*intervalCycles)
	miss(sim, ctl, nvmSeg(ctl, 0))
	sim.Drain(0)
	if m.Stats().Migrations == 0 {
		b.Fatal("no migrations")
	}
	rng := rand.New(rand.NewSource(1))
	lines := make([]mem.Addr, 1024)
	for i := range lines {
		lines[i] = mem.Addr(rng.Int63n(int64(ctl.Layout.Total()))) &^ (mem.LineSize - 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink mem.Addr
	for i := 0; i < b.N; i++ {
		sink += m.TranslateLine(lines[i&1023])
	}
	_ = sink
}

// TestZeroAllocMEA: a MemPod interval's sketch work — 64-counter Observes
// that increment, insert and decrement, then the interval's Reset —
// allocates nothing.
func TestZeroAllocMEA(t *testing.T) {
	m := NewMEA(64)
	x := uint64(1)
	interval := func() {
		for i := 0; i < 2_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			e := x >> 40 % 96 // a few more elements than counters
			if i&1 == 0 {
				e = x >> 40 % 8 // a hot set that survives
			}
			m.Observe(e)
		}
		m.Reset()
	}
	interval()
	inc, dec := m.Increments, m.Decrements
	if allocs := testing.AllocsPerRun(10, interval); allocs != 0 {
		t.Fatalf("an interval of Observe and Reset allocates %.1f times, want 0", allocs)
	}
	if m.Increments == inc || m.Decrements == dec {
		t.Fatal("the stream never incremented or never decremented")
	}
}
