package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// flatMem services any line after a fixed latency; it records page-walk
// traffic so tests can count reads per level.
type flatMem struct {
	sim     *engine.Sim
	latency uint64
	reads   []mem.Addr
	pteReqs int
}

func (f *flatMem) Access(l mem.Addr, write bool, meta cache.Meta, done func()) {
	f.reads = append(f.reads, l)
	if meta.IsPTE {
		f.pteReqs++
	}
	f.sim.After(f.latency, func() {
		if done != nil {
			done()
		}
	})
}

type hintRec struct {
	hints []Hint
}

func (h *hintRec) MMUHint(hh Hint) { h.hints = append(h.hints, hh) }

func testRig(t *testing.T, hinter Hinter) (*engine.Sim, *mem.OS, *MMU, *flatMem) {
	t.Helper()
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 8 << 20, NVMBytes: 64 << 20}, 16)
	osm.NewProcess(1)
	fm := &flatMem{sim: sim, latency: 100}
	m := New(sim, osm, 0, 1, DefaultConfig(), fm, hinter)
	return sim, osm, m, fm
}

func TestFirstTranslationWalksAllLevels(t *testing.T) {
	sim, _, m, fm := testRig(t, nil)
	var got mem.PPN
	m.Translate(0x7f0000001000, nil, func(p mem.PPN) { got = p })
	sim.Drain(0)
	if got == 0 && !m.os.Map().Contains(got.Addr()) {
		t.Fatal("translation returned invalid PPN")
	}
	if len(fm.reads) != 4 {
		t.Fatalf("cold walk issued %d reads, want 4", len(fm.reads))
	}
	st := m.Stats()
	if st.Walks != 1 || st.WalkReads != 4 || st.L1Misses != 1 || st.L2Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTLBHitSkipsWalk(t *testing.T) {
	sim, _, m, fm := testRig(t, nil)
	m.Translate(0x1000, nil, func(mem.PPN) {})
	sim.Drain(0)
	n := len(fm.reads)
	var lat uint64
	start := sim.Now()
	m.Translate(0x1000, nil, func(mem.PPN) { lat = sim.Now() - start })
	sim.Drain(0)
	if len(fm.reads) != n {
		t.Fatal("L1 TLB hit still walked")
	}
	if lat != m.cfg.L1TLB.Latency {
		t.Fatalf("L1 TLB hit latency = %d, want %d", lat, m.cfg.L1TLB.Latency)
	}
}

func TestPWCShortensSecondWalk(t *testing.T) {
	sim, _, m, fm := testRig(t, nil)
	// Two pages under the same PMD: the second walk should only read the PTE.
	m.Translate(0x2000, nil, func(mem.PPN) {})
	sim.Drain(0)
	n := len(fm.reads)
	m.Translate(0x2000+mem.PageSize, nil, func(mem.PPN) {})
	sim.Drain(0)
	if len(fm.reads)-n != 1 {
		t.Fatalf("PMD-covered walk issued %d reads, want 1", len(fm.reads)-n)
	}
}

func TestTranslationsAreStable(t *testing.T) {
	sim, _, m, _ := testRig(t, nil)
	var p1, p2 mem.PPN
	m.Translate(0x5000, nil, func(p mem.PPN) { p1 = p })
	sim.Drain(0)
	m.Translate(0x5000, nil, func(p mem.PPN) { p2 = p })
	sim.Drain(0)
	if p1 != p2 {
		t.Fatalf("translation changed: %v vs %v", p1, p2)
	}
}

func TestHintSentOncePerWalk(t *testing.T) {
	hr := &hintRec{}
	sim, osm, m, _ := testRig(t, hr)
	va := mem.VAddr(0x7f0000003000)
	m.Translate(va, nil, func(mem.PPN) {})
	sim.Drain(0)
	if len(hr.hints) != 1 {
		t.Fatalf("got %d hints, want 1", len(hr.hints))
	}
	h := hr.hints[0]
	if h.VPN != mem.VPageOf(va) || h.PID != 1 || h.Core != 0 {
		t.Fatalf("hint = %+v", h)
	}
	as, _ := osm.Process(1)
	w, ok := as.Lookup(va)
	if !ok {
		t.Fatal("page not mapped after walk")
	}
	if h.PTELine != mem.LineOf(w.PTEAddr()) {
		t.Fatalf("hint PTE line %#x, want %#x", uint64(h.PTELine), uint64(mem.LineOf(w.PTEAddr())))
	}
	if h.LeafPPN != w.Leaf {
		t.Fatalf("hint leaf %v, want %v", h.LeafPPN, w.Leaf)
	}
	// TLB hit: no further hints.
	m.Translate(va, nil, func(mem.PPN) {})
	sim.Drain(0)
	if len(hr.hints) != 1 {
		t.Fatal("TLB hit produced a hint")
	}
}

func TestOnlyLeafReadMarkedPTE(t *testing.T) {
	sim, _, m, fm := testRig(t, nil)
	m.Translate(0x9000, nil, func(mem.PPN) {})
	sim.Drain(0)
	if fm.pteReqs != 1 {
		t.Fatalf("%d reads marked IsPTE, want 1", fm.pteReqs)
	}
}

func TestWalksSerialisePerCore(t *testing.T) {
	sim, _, m, _ := testRig(t, nil)
	// Issue two translations in different PGD regions back to back; the
	// walker must run them one after another (no PWC sharing, 4 reads each,
	// and the second's walk cannot overlap the first's).
	var t1, t2 uint64
	m.Translate(0x1000, nil, func(mem.PPN) { t1 = sim.Now() })
	m.Translate(mem.VAddr(1)<<39, nil, func(mem.PPN) { t2 = sim.Now() })
	sim.Drain(0)
	if t2 < t1+4*100 {
		t.Fatalf("second walk finished at %d, first at %d: walks overlapped", t2, t1)
	}
}

func TestTLBEviction(t *testing.T) {
	tl := NewTLB(TLBConfig{Entries: 8, Ways: 2, Latency: 1})
	// Fill one set (vpn ≡ set mod 4) beyond capacity.
	vpns := []mem.VPN{0, 4, 8}
	for i, v := range vpns {
		tl.Insert(1, v, mem.PPN(i+1))
	}
	hits := 0
	for _, v := range vpns {
		if _, ok := tl.Lookup(1, v); ok {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("%d of 3 conflicting VPNs resident in 2-way set, want 2", hits)
	}
}

func TestTLBPIDTagging(t *testing.T) {
	tl := NewTLB(L1TLBConfig())
	tl.Insert(1, 0x10, 0xAA)
	if _, ok := tl.Lookup(2, 0x10); ok {
		t.Fatal("TLB hit across PIDs")
	}
}

func TestNewTLBRejectsBadWays(t *testing.T) {
	for _, ways := range []int{0, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTLB with %d ways did not panic", ways)
				}
			}()
			NewTLB(TLBConfig{Entries: 64, Ways: ways, Latency: 1})
		}()
	}
}

func TestPWCRejectsLeafLevel(t *testing.T) {
	p := NewPWC()
	defer func() {
		if recover() == nil {
			t.Error("PWC Insert(PTE) did not panic")
		}
	}()
	p.Insert(1, 0, mem.PTE, 0)
}

func TestPWCDeepestLevelWins(t *testing.T) {
	p := NewPWC()
	va := mem.VAddr(0x7f0012345000)
	p.Insert(1, va, mem.PGD, 10)
	p.Insert(1, va, mem.PMD, 30)
	l, table, ok := p.Lookup(1, va)
	if !ok || l != mem.PMD || table != 30 {
		t.Fatalf("Lookup = (%v,%v,%v), want (PMD,30,true)", l, table, ok)
	}
}

// Property: for any access pattern, MMU translations agree with the OS page
// table, and TLB hits never change the result.
func TestTranslationCorrectnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		osm := mem.NewOS(mem.Map{DRAMBytes: 8 << 20, NVMBytes: 128 << 20}, 16)
		osm.NewProcess(7)
		fm := &flatMem{sim: sim, latency: 20}
		m := New(sim, osm, 0, 7, DefaultConfig(), fm, nil)
		as, _ := osm.Process(7)
		ok := true
		for i := 0; i < 200; i++ {
			va := mem.VAddr(rng.Uint64() & (1<<36 - 1))
			m.Translate(va, nil, func(got mem.PPN) {
				if want, found := as.Translate(va); !found || got != want {
					ok = false
				}
			})
			if rng.Intn(3) == 0 {
				sim.Drain(0)
			}
		}
		sim.Drain(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: TLB behaves as a bounded map — a lookup immediately after an
// insert for the same (pid,vpn) always hits with the inserted value.
func TestTLBInsertLookupProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTLB(L2TLBConfig())
		for i := 0; i < 500; i++ {
			pid := rng.Intn(4)
			vpn := mem.VPN(rng.Intn(1 << 16))
			ppn := mem.PPN(rng.Intn(1 << 20))
			tl.Insert(pid, vpn, ppn)
			got, ok := tl.Lookup(pid, vpn)
			if !ok || got != ppn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
