package mem

import "fmt"

// Allocator hands out physical page frames from the DRAM and NVM regions.
//
// Frames are issued in ascending address order within each region (a fresh
// system has no fragmentation), and freed frames are recycled LIFO. The
// allocator also implements the first-touch placement policy used by the
// simulated OS: data pages go to DRAM until only ReserveDRAM frames remain,
// then spill to NVM, matching how a real OS would fill the fast tier first.
type Allocator struct {
	m Map

	nextDRAM PPN
	nextNVM  PPN
	freeDRAM []PPN
	freeNVM  []PPN

	usedDRAM uint64
	usedNVM  uint64

	// ReserveDRAM frames are withheld from first-touch data placement so
	// page tables and controller metadata always find DRAM space.
	ReserveDRAM uint64
}

// NewAllocator returns an allocator over the given address map.
func NewAllocator(m Map) *Allocator {
	return &Allocator{
		m:        m,
		nextDRAM: 0,
		nextNVM:  PPN(m.DRAMBytes >> PageShift),
	}
}

// Map returns the address map this allocator serves.
func (a *Allocator) Map() Map { return a.m }

// FreeDRAMFrames returns how many DRAM frames remain unallocated.
func (a *Allocator) FreeDRAMFrames() uint64 {
	return a.m.DRAMPages() - a.usedDRAM
}

// FreeNVMFrames returns how many NVM frames remain unallocated.
func (a *Allocator) FreeNVMFrames() uint64 {
	return a.m.NVMPages() - a.usedNVM
}

// UsedDRAMFrames returns how many DRAM frames are currently allocated.
func (a *Allocator) UsedDRAMFrames() uint64 { return a.usedDRAM }

// UsedNVMFrames returns how many NVM frames are currently allocated.
func (a *Allocator) UsedNVMFrames() uint64 { return a.usedNVM }

// Named returns the number of frames a run can name: every DRAM frame, and
// the NVM frames issued so far, which sit below nextNVM. Per-frame state
// sized to it once the footprint is mapped covers every frame holding
// data, a page table or controller metadata.
func (a *Allocator) Named() uint64 { return uint64(a.nextNVM) }

// AllocDRAM allocates one DRAM frame. ok is false when DRAM is exhausted.
func (a *Allocator) AllocDRAM() (PPN, bool) {
	if n := len(a.freeDRAM); n > 0 {
		p := a.freeDRAM[n-1]
		a.freeDRAM = a.freeDRAM[:n-1]
		a.usedDRAM++
		return p, true
	}
	if uint64(a.nextDRAM) >= a.m.DRAMPages() {
		return 0, false
	}
	p := a.nextDRAM
	a.nextDRAM++
	a.usedDRAM++
	return p, true
}

// AllocNVM allocates one NVM frame. ok is false when NVM is exhausted.
func (a *Allocator) AllocNVM() (PPN, bool) {
	if n := len(a.freeNVM); n > 0 {
		p := a.freeNVM[n-1]
		a.freeNVM = a.freeNVM[:n-1]
		a.usedNVM++
		return p, true
	}
	first := PPN(a.m.DRAMPages())
	if uint64(a.nextNVM-first) >= a.m.NVMPages() {
		return 0, false
	}
	p := a.nextNVM
	a.nextNVM++
	a.usedNVM++
	return p, true
}

// AllocData allocates a data frame under the first-touch policy: DRAM while
// more than ReserveDRAM frames remain, NVM afterwards. ok is false only when
// both regions are exhausted.
func (a *Allocator) AllocData() (PPN, bool) {
	if a.FreeDRAMFrames() > a.ReserveDRAM {
		if p, ok := a.AllocDRAM(); ok {
			return p, true
		}
	}
	if p, ok := a.AllocNVM(); ok {
		return p, true
	}
	return a.AllocDRAM()
}

// AllocTable allocates a page-table frame, preferring DRAM (page tables are
// latency critical) and spilling to NVM only when DRAM is full.
func (a *Allocator) AllocTable() (PPN, bool) {
	if p, ok := a.AllocDRAM(); ok {
		return p, true
	}
	return a.AllocNVM()
}

// Free returns a frame to its region's free list.
func (a *Allocator) Free(p PPN) {
	if !a.m.Contains(p.Addr()) {
		panic(fmt.Sprintf("mem: freeing frame %#x outside physical memory", uint64(p)))
	}
	if a.m.IsDRAMPage(p) {
		a.freeDRAM = append(a.freeDRAM, p)
		if a.usedDRAM == 0 {
			panic("mem: double free in DRAM region")
		}
		a.usedDRAM--
	} else {
		a.freeNVM = append(a.freeNVM, p)
		if a.usedNVM == 0 {
			panic("mem: double free in NVM region")
		}
		a.usedNVM--
	}
}
