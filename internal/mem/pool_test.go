package mem

import "testing"

// TestPoolReusesMostRecentAndCountsLive: Get mints (returns nil) only while
// the pool is empty, hands back the most recently returned record first,
// and Live counts every record between Get and Put.
func TestPoolReusesMostRecentAndCountsLive(t *testing.T) {
	var p Pool[int]
	if p.Get() != nil || p.Get() != nil || p.Live() != 2 {
		t.Fatalf("empty pool: want nil records and 2 live, got %d live", p.Live())
	}
	a, b := new(int), new(int)
	p.Put(a)
	p.Put(b)
	if p.Live() != 0 {
		t.Fatalf("after returning both: %d live, want 0", p.Live())
	}
	if got := p.Get(); got != b {
		t.Fatal("Get did not return the most recently returned record")
	}
	if got := p.Get(); got != a {
		t.Fatal("Get did not return the remaining record")
	}
	if p.Get() != nil || p.Live() != 3 {
		t.Fatalf("drained pool: want nil and 3 live, got %d live", p.Live())
	}
}

// TestZeroAllocPool: once the free stack has grown, a Get/Put cycle
// allocates nothing.
func TestZeroAllocPool(t *testing.T) {
	var p Pool[int]
	recs := []*int{new(int), new(int), new(int)}
	for _, r := range recs {
		p.Put(r)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		a, b := p.Get(), p.Get()
		p.Put(a)
		p.Put(b)
	}); allocs != 0 {
		t.Fatalf("Get/Put allocates %.1f times, want 0", allocs)
	}
}
