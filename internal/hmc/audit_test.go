package hmc

import (
	"strings"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
)

func TestSwapAuditCleanEngine(t *testing.T) {
	sim, e, _ := testEngine(5)
	done := false
	if !e.Start(pairMove(0, mem.Addr(256*mem.PageSize)), marks(&done)) {
		t.Fatal("Start rejected a valid op")
	}
	sim.Drain(0)
	if !done {
		t.Fatal("op never completed")
	}
	a := &check.Audit{}
	e.Audit(a)
	if !a.OK() {
		t.Fatalf("clean engine fails audit: %q", a.Violations())
	}
}

// TestSwapAuditCatchesStuckOp wedges a swap by never completing its line
// transfers: the op stays running forever and the audit must report it.
func TestSwapAuditCatchesStuckOp(t *testing.T) {
	sim := engine.New()
	drop := func(addr mem.Addr, write bool, prio memsim.Priority, done func()) {}
	e := NewSwapEngine(sim, drop, nil)
	if !e.Start(pairMove(0, mem.Addr(256*mem.PageSize)), noHook) {
		t.Fatal("Start rejected a valid op")
	}
	sim.Drain(0)

	a := &check.Audit{}
	e.Audit(a)
	if a.OK() {
		t.Fatal("audit missed a swap op that never completed")
	}
	joined := strings.Join(a.Violations(), "\n")
	if !strings.Contains(joined, "op") {
		t.Fatalf("violations never mention the stuck op: %q", joined)
	}
	// The forensic description names the wedged op for the crashdump.
	if lines := e.DescribeRunning(); len(lines) != 1 || !strings.Contains(lines[0], "readsLeft") {
		t.Fatalf("DescribeRunning() = %q", lines)
	}
}

func TestMetaCacheAuditCatchesStuckFetch(t *testing.T) {
	sim := engine.New()
	drop := func(addr mem.Addr, write bool, prio memsim.Priority, done func()) {}
	region := MetaRegion{Base: 0x1000, Bytes: 1 << 20, EntrySize: 8}
	mc := NewMetaCache(sim, MetaCacheConfig{Name: "T", Entries: 64, Ways: 4, HitLatency: 2}, region, drop)
	got := false
	mc.Access(42, false, nil, func() { got = true })
	sim.Drain(0)
	if got {
		t.Fatal("access completed without a backing store")
	}
	a := &check.Audit{}
	mc.Audit(a)
	if a.OK() {
		t.Fatal("audit missed a metadata fetch that never returned")
	}
}
