package mempod

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.RemapEntries = 128
	cfg.RemapTableBytes = 8 << 10
	return cfg
}

func testRig() (*engine.Sim, *hmc.Controller, *MemPod) {
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 2 << 20, NVMBytes: 16 << 20}, 16)
	ctl := hmc.NewController(sim, osm)
	m := New(ctl, testConfig())
	ctl.Seal(ctl.Layout.Total() >> mem.PageShift) // the rig names frames directly
	return sim, ctl, m
}

// segOf returns the 2KB segment holding address a.
func segOf(a mem.Addr) hmc.Seg { return hmc.Seg(a >> segShift) }

func nvmSeg(ctl *hmc.Controller, i int) mem.Addr {
	return mem.Addr(ctl.Layout.DRAMBytes) + mem.Addr(i)<<segShift
}

func miss(sim *engine.Sim, ctl *hmc.Controller, a mem.Addr) {
	ctl.Access(a, false, cache.Meta{PID: 1}, nil)
	sim.Drain(0)
}

func TestMEAMajority(t *testing.T) {
	m := NewMEA(4)
	// Element 7 appears more than everything else combined: it must survive.
	for i := 0; i < 100; i++ {
		m.Observe(7)
		m.Observe(uint64(100 + i)) // unique noise
	}
	if m.Count(7) == 0 {
		t.Fatal("majority element evicted")
	}
	hot := m.Frequent(nil, 2)
	found := false
	for _, h := range hot {
		if h == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("majority element not frequent: %v", hot)
	}
}

func TestMEADecrementOnFull(t *testing.T) {
	m := NewMEA(2)
	m.Observe(1)
	m.Observe(2)
	m.Observe(3) // full: all decrement; 1,2 at count 1 -> evicted
	if m.Len() != 0 {
		t.Fatalf("Len = %d after global decrement, want 0", m.Len())
	}
	if m.Decrements != 1 {
		t.Fatalf("Decrements = %d", m.Decrements)
	}
}

func TestMEAReset(t *testing.T) {
	m := NewMEA(4)
	m.Observe(1)
	m.Reset()
	if m.Len() != 0 || m.Count(1) != 0 {
		t.Fatal("Reset did not clear")
	}
}

// Property: MEA guarantees any element with frequency > 1/(capacity+1) of
// the stream survives (the classical Misra-Gries/MEA bound).
func TestMEAFrequencyBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cap := rng.Intn(16) + 4
		m := NewMEA(cap)
		n := 800
		heavy := uint64(9999)
		heavyCount := n/(cap+1) + cap + 1 // strictly above the bound
		stream := make([]uint64, 0, n)
		for i := 0; i < heavyCount; i++ {
			stream = append(stream, heavy)
		}
		for len(stream) < n {
			stream = append(stream, uint64(rng.Intn(500)))
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		for _, e := range stream {
			m.Observe(e)
		}
		return m.Count(heavy) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalMigration(t *testing.T) {
	sim, ctl, m := testRig()
	hot := nvmSeg(ctl, 40)
	// Heat the segment within one interval, then cross the boundary.
	for i := 0; i < 30; i++ {
		miss(sim, ctl, hot)
	}
	sim.RunUntil(sim.Now() + 2*intervalCycles)
	miss(sim, ctl, hot) // lazy tick fires the interval migration
	sim.Drain(0)
	if m.Stats().Migrations == 0 {
		t.Fatal("no migration after a hot interval")
	}
	if got := m.TranslateLine(hot); !ctl.Layout.IsDRAM(got) {
		t.Fatalf("hot segment still in NVM at %#x", uint64(got))
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestNoMigrationBeforeInterval(t *testing.T) {
	sim, ctl, m := testRig()
	hot := nvmSeg(ctl, 40)
	for i := 0; i < 30; i++ {
		ctl.Access(hot, false, cache.Meta{PID: 1}, nil)
	}
	sim.Drain(0)
	// All within the first interval: MemPod waits for the boundary
	// (the rigidity Section V-A criticises).
	if m.Stats().Migrations != 0 {
		t.Fatal("migrated before the interval boundary")
	}
}

func TestMigrationsStayInPod(t *testing.T) {
	sim, ctl, m := testRig()
	// Heat several segments in different pods; after migration each must
	// sit in a DRAM slot of its own pod.
	hots := []mem.Addr{nvmSeg(ctl, 40), nvmSeg(ctl, 41), nvmSeg(ctl, 42), nvmSeg(ctl, 43)}
	for round := 0; round < 2; round++ {
		for i := 0; i < 30; i++ {
			for _, h := range hots {
				miss(sim, ctl, h)
			}
		}
		sim.RunUntil(sim.Now() + 2*intervalCycles)
	}
	miss(sim, ctl, hots[0])
	sim.Drain(0)
	for _, h := range hots {
		s := segOf(h)
		loc := m.Loc(s)
		if loc == s {
			continue // not migrated (victim scarcity is fine)
		}
		if m.podOf(loc) != m.podOf(s) {
			t.Fatalf("segment %d migrated across pods to %d", s, loc)
		}
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestHotDRAMDataNotVictimised(t *testing.T) {
	sim, ctl, m := testRig()
	// A DRAM segment that is itself hot must not be chosen as a victim for
	// an NVM segment in the same pod and interval.
	pod0DRAM := mem.Addr(1 << 20) // DRAM, above metadata
	s := segOf(pod0DRAM)
	pi := m.podOf(s)
	// find an NVM segment in the same pod
	var hot mem.Addr
	for i := 0; i < 16; i++ {
		a := nvmSeg(ctl, 80+i)
		if m.podOf(segOf(a)) == pi {
			hot = a
			break
		}
	}
	for i := 0; i < 30; i++ {
		miss(sim, ctl, pod0DRAM)
		miss(sim, ctl, hot)
	}
	sim.RunUntil(sim.Now() + 2*intervalCycles)
	miss(sim, ctl, hot)
	sim.Drain(0)
	if m.Owner(s) != s {
		t.Fatal("hot DRAM segment was displaced")
	}
}

// Property: MemPod's remap state always matches the data (oracle), all
// requests complete, under random traffic with interval crossings.
func TestMemPodIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim, ctl, _ := testRig()
		want, got := 0, 0
		for op := 0; op < 400; op++ {
			var a mem.Addr
			if rng.Intn(3) == 0 {
				a = mem.Addr(rng.Intn(1<<20) + (1 << 20))
			} else {
				a = nvmSeg(ctl, rng.Intn(256))
			}
			a &= ^mem.Addr(63)
			want++
			ctl.Access(a, rng.Intn(4) == 0, cache.Meta{PID: rng.Intn(2)}, func() { got++ })
			if rng.Intn(5) == 0 {
				sim.RunUntil(sim.Now() + uint64(rng.Intn(3*intervalCycles/2)))
			}
			if rng.Intn(60) == 0 {
				sim.Drain(0)
				if err := ctl.VerifyIntegrity(); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		sim.Drain(0)
		if err := ctl.VerifyIntegrity(); err != nil {
			t.Log(err)
			return false
		}
		return want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingMigrationKeepsItsHotSet: a migration queued because no swap
// buffer was free keeps the hot set of the interval that queued it after
// the next interval runs.
func TestPendingMigrationKeepsItsHotSet(t *testing.T) {
	sim, ctl, m := testRig()
	var started []hmc.Ask
	hmc.NewAdmission(m.Segments, admission, func(q hmc.Ask) int {
		started = append(started, q)
		return m.migrate(q)
	}, nil, nil)
	// Fill every swap buffer with an exchange the paused clock does not let
	// finish before both intervals ran, so every interval migration queues.
	fast := m.FastUnits()
	for i := hmc.Seg(0); i < hmc.MaxOps; i++ {
		if got := m.Exchange(fast+100+i, fast-1-i, 0); got != hmc.Exchanged {
			t.Fatalf("exchange %d: got %d, want Exchanged", i, got)
		}
	}

	heat := func(s hmc.Seg) {
		for i := 0; i < 4; i++ {
			m.pods[m.podOf(s)].mea.Observe(uint64(s))
		}
	}
	first, second := segOf(nvmSeg(ctl, 40)), segOf(nvmSeg(ctl, 44)) // same pod
	heat(first)
	m.interval()
	heat(second)
	m.interval()

	if m.Pending() != 2 || len(started) != 0 {
		t.Fatalf("%d queued and %d started migrations, want 2 and 0", m.Pending(), len(started))
	}
	sim.Drain(0)
	if len(started) != 2 || started[0].Unit != first || started[1].Unit != second {
		t.Fatalf("queued migrations started as %+v, want %d then %d", started, first, second)
	}
	a, b := started[0].Arg.(*hotSet), started[1].Arg.(*hotSet)
	if a == b || !a.has(first) || a.has(second) || !b.has(second) || b.has(first) {
		t.Fatalf("queued migrations see hot sets %v and %v, want [%d] and [%d]", a.segs, b.segs, first, second)
	}
}
