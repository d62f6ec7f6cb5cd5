package mmu

import (
	"testing"

	"pageseer/internal/mem"
)

// BenchmarkTLBInsert: installs into the Table I L2 TLB (85 sets of 12
// ways) from a stream over 16 times its capacity, so nearly every insert
// replaces the LRU entry of a full set.
func BenchmarkTLBInsert(b *testing.B) {
	tl := NewTLB(L2TLBConfig())
	vpns := make([]mem.VPN, 4096)
	x := uint64(1)
	for i := range vpns {
		x = x*6364136223846793005 + 1442695040888963407
		vpns[i] = mem.VPN(x >> 40 % uint64(16*tl.Capacity()))
	}
	for i, v := range vpns {
		tl.Insert(1, v, mem.PPN(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Insert(1, vpns[i&4095], mem.PPN(i))
	}
}
