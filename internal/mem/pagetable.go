package mem

import "fmt"

// entryPresent marks a page-table entry as valid. The entry layout mirrors
// x86: bits 51-12 hold the child/leaf frame number, bit 0 is Present.
const entryPresent = 1

func makeEntry(p PPN) uint64   { return uint64(p)<<PageShift | entryPresent }
func entryPPN(e uint64) PPN    { return PPN(e >> PageShift & 0xFFFFFFFFF) }
func entryValid(e uint64) bool { return e&entryPresent != 0 }

// tableStore holds the contents of every allocated page-table frame. It is
// shared by all address spaces so the walker can read any table by frame
// number, exactly as hardware reads physical memory: frames is indexed by
// PPN up to the highest table frame, nil where a frame holds no table.
type tableStore struct {
	frames []*[EntriesPerTable]uint64
}

func (ts *tableStore) add(p PPN) {
	if n := int(p) + 1; n > len(ts.frames) {
		ts.frames = append(ts.frames, make([]*[EntriesPerTable]uint64, n-len(ts.frames))...)
	}
	ts.frames[p] = new([EntriesPerTable]uint64)
}

// table returns frame p's table, or nil when p holds none.
func (ts *tableStore) table(p PPN) *[EntriesPerTable]uint64 {
	if uint64(p) >= uint64(len(ts.frames)) {
		return nil
	}
	return ts.frames[p]
}

func (ts *tableStore) read(p PPN, idx uint64) uint64 {
	t := ts.table(p)
	if t == nil {
		panic(fmt.Sprintf("mem: reading page-table frame %#x that was never allocated", uint64(p)))
	}
	return t[idx]
}

func (ts *tableStore) write(p PPN, idx uint64, v uint64) {
	t := ts.table(p)
	if t == nil {
		panic(fmt.Sprintf("mem: writing page-table frame %#x that was never allocated", uint64(p)))
	}
	t[idx] = v
}

// WalkStep records one page-table access of a walk: the level and the
// physical address of the 8-byte entry that the hardware reads.
type WalkStep struct {
	Level     Level
	EntryAddr Addr
}

// Walk is the result of a full 4-level page walk.
type Walk struct {
	Steps [NumLevels]WalkStep
	Leaf  PPN // the translated physical page
}

// PTEAddr returns the physical address of the final (leaf) page-table entry.
// This is the address whose cache line the PageSeer MMU Driver caches.
func (w Walk) PTEAddr() Addr { return w.Steps[PTE].EntryAddr }

// AddressSpace is one process's 4-level page table: its only translation record.
type AddressSpace struct {
	pid   int
	root  PPN // PGD frame (the CR3 value)
	store *tableStore
	alloc *Allocator

	tableCount uint64

	// region is the 2MB region of the last page mapPage mapped (all ones
	// before the first) and tables the table frame its walk read at each
	// level. Tables are never freed and only mapPage writes them, so
	// upper-level entries never change once present and a page in the
	// same region starts at tables[PTE].
	region uint64
	tables [NumLevels]PPN
}

// PID returns the owning process identifier.
func (as *AddressSpace) PID() int { return as.pid }

// Root returns the PGD frame (CR3).
func (as *AddressSpace) Root() PPN { return as.root }

// TableFrames returns the number of frames consumed by page tables,
// including the root.
func (as *AddressSpace) TableFrames() uint64 { return as.tableCount }

// TablesFor returns the page-table frames a process builds to map bytes of
// address space from va: its root, and at each lower level one table per
// span of address space a table of that level maps.
func TablesFor(va VAddr, bytes uint64) uint64 {
	first, last := uint64(va), uint64(va)+bytes-1
	n := uint64(1)
	for l := PUD; l < NumLevels; l++ {
		shift := uint(48 - 9*int(l)) // a level-l table maps 1<<shift bytes
		n += last>>shift - first>>shift + 1
	}
	return n
}

func entryAddr(table PPN, idx uint64) Addr {
	return table.Addr() + Addr(idx*8)
}

// Lookup walks the table for va without allocating. ok is false if any level
// is not present.
func (as *AddressSpace) Lookup(va VAddr) (Walk, bool) {
	var w Walk
	table := as.root
	for l := PGD; l < NumLevels; l++ {
		idx := Index(va, l)
		w.Steps[l] = WalkStep{Level: l, EntryAddr: entryAddr(table, idx)}
		e := as.store.read(table, idx)
		if !entryValid(e) {
			return w, false
		}
		table = entryPPN(e)
	}
	w.Leaf = table
	return w, true
}

// mapPage maps va's page on first touch, allocating the missing table
// levels and the leaf data frame, and leaves as.tables holding the table
// frames of va's walk. It returns the leaf frame and whether the page was
// newly created. The one mapping routine under Touch and Prefault.
func (as *AddressSpace) mapPage(va VAddr) (leaf PPN, created bool, err error) {
	from, region := PGD, uint64(va)>>(PageShift+9)
	if region == as.region {
		from = PTE
	} else {
		as.region = ^uint64(0) // tables is rewritten below
	}
	for l := from; l < NumLevels; l++ {
		table, idx := as.tables[l], Index(va, l)
		e := as.store.read(table, idx)
		if !entryValid(e) {
			var child PPN
			var ok bool
			if l == PTE {
				child, ok = as.alloc.AllocData()
			} else {
				child, ok = as.alloc.AllocTable()
				if ok {
					as.store.add(child)
					as.tableCount++
				}
			}
			if !ok {
				return 0, false, fmt.Errorf("mem: out of physical memory mapping va %#x (pid %d)", uint64(va), as.pid)
			}
			e = makeEntry(child)
			as.store.write(table, idx, e)
			created = l == PTE
		}
		if l == PTE {
			leaf = entryPPN(e)
		} else {
			as.tables[l+1] = entryPPN(e)
		}
	}
	as.region = region
	return leaf, created, nil
}

// Touch maps va's page on first touch (see mapPage) and returns the
// complete walk and whether the leaf page was newly created.
func (as *AddressSpace) Touch(va VAddr) (Walk, bool, error) {
	leaf, created, err := as.mapPage(va)
	if err != nil {
		return Walk{}, false, err
	}
	w := Walk{Leaf: leaf}
	for l := PGD; l < NumLevels; l++ {
		w.Steps[l] = WalkStep{Level: l, EntryAddr: entryAddr(as.tables[l], Index(va, l))}
	}
	return w, created, nil
}

// Prefault maps va's page on first touch, like Touch, but builds no walk:
// the mapping path sim.Build pre-touches every footprint page through.
func (as *AddressSpace) Prefault(va VAddr) error {
	_, _, err := as.mapPage(va)
	return err
}

// Translate returns the physical page mapped at va, if present.
func (as *AddressSpace) Translate(va VAddr) (PPN, bool) {
	w, ok := as.Lookup(va)
	return w.Leaf, ok
}
