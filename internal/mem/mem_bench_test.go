package mem

import "testing"

// walkLoop is an address space with 1,024 pages mapped, spread across
// several page-table leaves, so every WalkVA reads four present levels.
type walkLoop struct {
	o   *OS
	vas [1024]VAddr
}

func newWalkLoop() *walkLoop {
	l := &walkLoop{o: testOS()}
	l.o.NewProcess(1)
	for i := range l.vas {
		l.vas[i] = VAddr(uint64(i*37%1024) << 14) // every fourth page of 16MB
		l.o.WalkVA(1, l.vas[i])
	}
	return l
}

func BenchmarkWalkVA(b *testing.B) {
	l := newWalkLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.o.WalkVA(1, l.vas[i&1023])
	}
}

// TestZeroAllocWalkVA: walking a mapped page allocates nothing.
func TestZeroAllocWalkVA(t *testing.T) {
	l := newWalkLoop()
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		l.o.WalkVA(1, l.vas[i&1023])
		i++
	}); allocs != 0 {
		t.Fatalf("WalkVA on a mapped page allocates %.1f times, want 0", allocs)
	}
}
