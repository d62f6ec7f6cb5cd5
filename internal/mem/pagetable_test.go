package mem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testOS() *OS {
	return NewOS(Map{DRAMBytes: 4 << 20, NVMBytes: 16 << 20}, 64)
}

func TestTouchCreatesMapping(t *testing.T) {
	o := testOS()
	as := o.NewProcess(1)
	va := VAddr(0x7f0012345678)
	w, created, err := as.Touch(va)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Touch did not create the page")
	}
	if w.Leaf == 0 && !o.Map().Contains(w.Leaf.Addr()) {
		t.Fatalf("leaf %v outside memory", w.Leaf)
	}
	// Second touch of the same page: no new mapping, same leaf.
	w2, created2, err := as.Touch(va + 8)
	if err != nil {
		t.Fatal(err)
	}
	if created2 {
		t.Fatal("second Touch re-created the page")
	}
	if w2.Leaf != w.Leaf {
		t.Fatalf("leaf changed across touches: %v vs %v", w2.Leaf, w.Leaf)
	}
}

func TestWalkStepsAreDistinctAndWellFormed(t *testing.T) {
	o := testOS()
	as := o.NewProcess(1)
	va := VAddr(0x00005abcdef01234) & (1<<48 - 1)
	w, _, err := as.Touch(va)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Addr]bool{}
	for l := PGD; l < NumLevels; l++ {
		st := w.Steps[l]
		if st.Level != l {
			t.Errorf("step %d level = %s", l, st.Level)
		}
		if seen[st.EntryAddr] {
			t.Errorf("duplicate entry address %#x", uint64(st.EntryAddr))
		}
		seen[st.EntryAddr] = true
		if st.EntryAddr%8 != 0 {
			t.Errorf("entry address %#x not 8-byte aligned", uint64(st.EntryAddr))
		}
		// Entry must be inside its table frame.
		if PageOffset(VAddr(st.EntryAddr)) >= PageSize {
			t.Errorf("entry outside frame")
		}
	}
	if w.PTEAddr() != w.Steps[PTE].EntryAddr {
		t.Error("PTEAddr mismatch")
	}
}

func TestLookupMissingReturnsFalse(t *testing.T) {
	o := testOS()
	as := o.NewProcess(1)
	if _, ok := as.Lookup(0x1234567000); ok {
		t.Fatal("Lookup found a never-touched page")
	}
	if _, ok := as.Translate(0x1234567000); ok {
		t.Fatal("Translate found a never-touched page")
	}
}

func TestSharedLevelsReused(t *testing.T) {
	o := testOS()
	as := o.NewProcess(1)
	// Two pages in the same 2MB region share PGD/PUD/PMD tables.
	va1 := VAddr(0x40000000)
	va2 := va1 + PageSize
	w1, _, _ := as.Touch(va1)
	w2, _, _ := as.Touch(va2)
	for l := PGD; l < PTE; l++ {
		// Same table frame means same entry address at equal indices.
		if PageOf(w1.Steps[l].EntryAddr) != PageOf(w2.Steps[l].EntryAddr) {
			t.Errorf("level %s tables differ for adjacent pages", l)
		}
	}
	if w1.Steps[PTE].EntryAddr == w2.Steps[PTE].EntryAddr {
		t.Error("distinct pages share a PTE slot")
	}
	if as.TableFrames() != 4 { // PGD+PUD+PMD+PT
		t.Errorf("TableFrames = %d, want 4", as.TableFrames())
	}
}

func TestProcessIsolation(t *testing.T) {
	o := testOS()
	a1 := o.NewProcess(1)
	a2 := o.NewProcess(2)
	va := VAddr(0x1000000)
	w1, _, _ := a1.Touch(va)
	w2, _, _ := a2.Touch(va)
	if w1.Leaf == w2.Leaf {
		t.Fatal("two processes mapped the same VA to the same frame")
	}
	if a1.Root() == a2.Root() {
		t.Fatal("two processes share a PGD")
	}
}

func TestDuplicatePIDPanics(t *testing.T) {
	o := testOS()
	o.NewProcess(1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate NewProcess did not panic")
		}
	}()
	o.NewProcess(1)
}

func TestWalkVAUnknownPIDPanics(t *testing.T) {
	o := testOS()
	defer func() {
		if recover() == nil {
			t.Error("WalkVA for unknown pid did not panic")
		}
	}()
	o.WalkVA(99, 0x1000)
}

func TestOSStats(t *testing.T) {
	o := testOS()
	as := o.NewProcess(1)
	before := o.Stats()
	if before.Processes != 1 {
		t.Fatalf("Processes = %d", before.Processes)
	}
	if _, _, err := as.Touch(0x1000); err != nil {
		t.Fatal(err)
	}
	after := o.Stats()
	if after.UsedDRAMFrames <= before.UsedDRAMFrames {
		t.Error("Touch did not consume frames")
	}
	// Processes counts live address spaces, not the pid range: pid 4
	// leaves 0, 2 and 3 unused.
	o.NewProcess(4)
	if n := o.Stats().Processes; n != 2 {
		t.Fatalf("Processes = %d after pids 1 and 4, want 2", n)
	}
	for _, pid := range []int{0, 2, 3, 5, -1} {
		if _, ok := o.Process(pid); ok {
			t.Fatalf("Process(%d) found an address space never created", pid)
		}
	}
	if got, ok := o.Process(4); !ok || got.pid != 4 {
		t.Fatal("Process(4) lost its address space")
	}
}

// TestWalkVAUnknownPID: a walk for a pid with no address space — never
// created, inside or past the created range, or negative — panics with a
// *WalkError naming the pid and address and carrying no cause.
func TestWalkVAUnknownPID(t *testing.T) {
	o := testOS()
	o.NewProcess(2)
	for _, pid := range []int{0, 1, 3, 1 << 20, -1, -1 << 40} {
		func() {
			defer func() {
				we, ok := recover().(*WalkError)
				if !ok {
					t.Fatalf("pid %d: WalkVA did not panic with *WalkError", pid)
				}
				if we.PID != pid || we.VA != 0x5000 || we.Err != nil {
					t.Fatalf("pid %d: WalkError = %+v", pid, *we)
				}
				if !strings.Contains(we.Error(), "unknown pid") {
					t.Fatalf("pid %d: message %q", pid, we.Error())
				}
			}()
			o.WalkVA(pid, 0x5000)
		}()
	}
}

// Property: a page table is a function — walking the same VA always yields
// the same leaf, different pages yield different leaves, and Lookup agrees
// with Touch.
func TestPageTableFunctionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := NewOS(Map{DRAMBytes: 4 << 20, NVMBytes: 64 << 20}, 16)
		as := o.NewProcess(1)
		ref := make(map[VPN]PPN)
		used := make(map[PPN]VPN)
		for i := 0; i < 400; i++ {
			va := VAddr(rng.Uint64() & (1<<40 - 1))
			w, _, err := as.Touch(va)
			if err != nil {
				return false
			}
			vpn := VPageOf(va)
			if prev, ok := ref[vpn]; ok {
				if prev != w.Leaf {
					return false // translation changed
				}
			} else {
				if owner, clash := used[w.Leaf]; clash && owner != vpn {
					return false // two VPNs share a frame
				}
				ref[vpn] = w.Leaf
				used[w.Leaf] = vpn
			}
			lw, ok := as.Lookup(va)
			if !ok || lw.Leaf != w.Leaf || lw.PTEAddr() != w.PTEAddr() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// panicMessage runs f and returns the string it panicked with ("" if it
// returned, and a runtime error's text if it died of one).
func panicMessage(f func()) (msg string) {
	defer func() {
		switch r := recover().(type) {
		case string:
			msg = r
		case error:
			msg = r.Error()
		}
	}()
	f()
	return ""
}

// TestTableStoreBounds: touching a frame that holds no table — a data
// frame, or a PPN beyond physical memory — panics with the store's own
// message, never with a runtime index error.
func TestTableStoreBounds(t *testing.T) {
	o := testOS()
	as := o.NewProcess(1)
	w := o.WalkVA(1, 0x1000)
	beyond := PPN(o.Map().Total() >> PageShift)
	for _, c := range []struct {
		name string
		p    PPN
	}{
		{"data frame", w.Leaf},
		{"first PPN beyond memory", beyond},
		{"far beyond memory", beyond << 20},
	} {
		if msg := panicMessage(func() { as.store.read(c.p, 0) }); !strings.Contains(msg, "reading page-table frame") || !strings.Contains(msg, "never allocated") {
			t.Errorf("%s: read panicked with %q", c.name, msg)
		}
		if msg := panicMessage(func() { as.store.write(c.p, 0, 1) }); !strings.Contains(msg, "writing page-table frame") || !strings.Contains(msg, "never allocated") {
			t.Errorf("%s: write panicked with %q", c.name, msg)
		}
	}
}

// TestIsPageTableBounds: the root and the walk's tables are page tables;
// the data frame and PPNs beyond physical memory are not.
func TestIsPageTableBounds(t *testing.T) {
	o := testOS()
	as := o.NewProcess(1)
	w := o.WalkVA(1, 0x1000)
	if !o.IsPageTable(as.Root()) {
		t.Error("the PGD is not a page table")
	}
	if o.IsPageTable(w.Leaf) {
		t.Error("the data frame is a page table")
	}
	beyond := PPN(o.Map().Total() >> PageShift)
	for _, p := range []PPN{beyond, beyond + 1, beyond << 20, ^PPN(0)} {
		if o.IsPageTable(p) {
			t.Errorf("PPN %#x beyond physical memory is a page table", uint64(p))
		}
	}
}

// TestTranslateReadsThePageTable: Translate agrees with Lookup on every
// mapped page, and reports a page that was never touched as absent, both
// in a region with a PTE-level table and in one without.
func TestTranslateReadsThePageTable(t *testing.T) {
	o := testOS()
	as := o.NewProcess(1)
	rng := rand.New(rand.NewSource(7))
	base := VAddr(0x40000000 - 150*PageSize) // the run straddles a 2MB boundary
	var vas []VAddr
	for i := 0; i < 300; i++ {
		va := base + VAddr(i)*PageSize
		if i%3 == 0 {
			va = VAddr(rng.Uint64() & (1<<40 - 1))
		}
		if _, _, err := as.Touch(va); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	for _, va := range vas {
		w, ok := as.Lookup(va)
		p, found := as.Translate(va)
		if !ok || !found || p != w.Leaf {
			t.Fatalf("va %#x: Translate = %v, %v; Lookup leaf %v, %v", uint64(va), p, found, w.Leaf, ok)
		}
	}
	for _, va := range []VAddr{base + 300*PageSize, 0x7f0000000000} {
		if p, found := as.Translate(va); found {
			t.Errorf("never-touched va %#x translates to %v", uint64(va), p)
		}
	}
}

// TestTouchMemoMatchesColdWalk: a Touch that starts from the memo of the
// previous walk returns the walk a cold Lookup from the root reads — at
// both ends of a 2MB region, across into the next region and back, with
// another process touching the same addresses in between.
func TestTouchMemoMatchesColdWalk(t *testing.T) {
	o := testOS()
	a1 := o.NewProcess(1)
	a2 := o.NewProcess(2)
	const region = 2 << 20
	base := VAddr(0x40000000)
	for i, c := range []struct {
		as *AddressSpace
		va VAddr
	}{
		{a1, base},
		{a1, base + region - PageSize},
		{a2, base + PageSize},
		{a1, base + region},
		{a1, base + region + PageSize},
		{a2, base + region - PageSize},
		{a1, base + PageSize},
		{a1, base + region - PageSize},
		{a1, base + 5*region},
	} {
		w, _, err := c.as.Touch(c.va)
		if err != nil {
			t.Fatal(err)
		}
		cold, ok := c.as.Lookup(c.va)
		if !ok || w != cold {
			t.Fatalf("step %d: pid %d va %#x: Touch walk %+v, cold walk %+v (present %v)", i, c.as.PID(), uint64(c.va), w, cold, ok)
		}
	}
}

// TestPrefaultMatchesWalkVA: mapping the same interleaved pages of two
// processes through Prefault and through WalkVA hands out the same frames.
// The run crosses 2MB and 1GB boundaries in both processes, so every table
// level is allocated mid-run. Both give each page the same leaf, the same
// frames hold tables, each process counts the same table frames, and a
// later WalkVA of every page returns the same walk on both.
func TestPrefaultMatchesWalkVA(t *testing.T) {
	const gb, region = 1 << 30, 2 << 20
	var vas []VAddr
	for _, base := range []VAddr{gb - 3*region/2, 2*gb - region/2, 5 * gb} {
		for off := VAddr(0); off < 2*region; off += 37 * PageSize {
			vas = append(vas, base+off)
		}
	}
	build := func(prefault bool) *OS {
		// 128 DRAM frames: the later pages spill to NVM.
		o := NewOS(Map{DRAMBytes: 512 << 10, NVMBytes: 16 << 20}, 16)
		for pid := 1; pid <= 2; pid++ {
			o.NewProcess(pid)
		}
		for _, va := range vas {
			for pid := 1; pid <= 2; pid++ {
				if prefault {
					as, _ := o.Process(pid)
					if err := as.Prefault(va + VAddr(pid-1)*PageSize); err != nil {
						t.Fatal(err)
					}
				} else {
					o.WalkVA(pid, va+VAddr(pid-1)*PageSize)
				}
			}
		}
		return o
	}
	pre, walked := build(true), build(false)
	for p := PPN(0); p < PPN(pre.Map().Total()>>PageShift); p++ {
		if pre.IsPageTable(p) != walked.IsPageTable(p) {
			t.Fatalf("frame %#x: page table %v after Prefault, %v after WalkVA", uint64(p), pre.IsPageTable(p), walked.IsPageTable(p))
		}
	}
	if pre.Allocator().UsedNVMFrames() == 0 {
		t.Fatal("no page spilled to NVM")
	}
	if pre.Allocator().Named() != walked.Allocator().Named() {
		t.Fatalf("Named = %d after Prefault, %d after WalkVA", pre.Allocator().Named(), walked.Allocator().Named())
	}
	for pid := 1; pid <= 2; pid++ {
		a, _ := pre.Process(pid)
		b, _ := walked.Process(pid)
		if a.TableFrames() != b.TableFrames() {
			t.Fatalf("pid %d: %d table frames after Prefault, %d after WalkVA", pid, a.TableFrames(), b.TableFrames())
		}
		for _, va := range vas {
			va += VAddr(pid-1) * PageSize
			pa, _ := a.Translate(va)
			pb, _ := b.Translate(va)
			if pa != pb {
				t.Fatalf("pid %d va %#x: leaf %v after Prefault, %v after WalkVA", pid, uint64(va), pa, pb)
			}
			if wa, wb := pre.WalkVA(pid, va), walked.WalkVA(pid, va); wa != wb {
				t.Fatalf("pid %d va %#x: walk %+v after Prefault, %+v after WalkVA", pid, uint64(va), wa, wb)
			}
		}
	}
}

// TestTablesForCountsBuiltTables: TablesFor predicts the table frames a
// process builds mapping a range, including ranges that cross the spans a
// PTE, PMD and PUD table map.
func TestTablesForCountsBuiltTables(t *testing.T) {
	cases := []struct {
		va    VAddr
		bytes uint64
	}{
		{0x10000000, PageSize},
		{0x10000000, 64 * PageSize},
		{1<<21 - PageSize, 2 * PageSize},
		{1<<30 - 2<<20, 5 << 20},
		{1<<39 - 1<<20, 3 << 20},
	}
	for _, c := range cases {
		o := NewOS(Map{DRAMBytes: 4 << 20, NVMBytes: 16 << 20}, 16)
		as := o.NewProcess(1)
		for off := uint64(0); off < c.bytes; off += PageSize {
			if err := as.Prefault(c.va + VAddr(off)); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := TablesFor(c.va, c.bytes), as.TableFrames(); got != want {
			t.Errorf("TablesFor(%#x, %d) = %d, built %d", uint64(c.va), c.bytes, got, want)
		}
	}
}
