package pom

import (
	"math/rand"
	"testing"

	"pageseer/internal/mem"
)

// BenchmarkPoMTranslateLine: the per-request translation on the test rig
// after a few dozen swaps, over lines spread across all of memory.
func BenchmarkPoMTranslateLine(b *testing.B) {
	sim, ctl, p := testRig()
	for i := 0; i < 32; i++ {
		a := slowSeg(ctl, 64*i)
		for j := 0; j < swapThreshold; j++ {
			miss(sim, ctl, a)
		}
	}
	if p.Stats().Swaps == 0 {
		b.Fatal("no swaps")
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
		sink += p.TranslateLine(lines[i&1023])
	}
	_ = sink
}
