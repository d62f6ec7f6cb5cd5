package mem

import "fmt"

// OS is the minimal operating-system model the simulation needs: it owns the
// physical frame allocator and one address space per process, builds real
// 4-level page tables in simulated frames, and maps pages on first touch.
//
// Page faults are serviced instantly (zero simulated cost). PageSeer's
// evaluation runs after 1.5B instructions of warm-up, by which point the
// working sets are mapped, so fault cost does not shape any reported result.
type OS struct {
	alloc *Allocator
	store *tableStore
	// procs holds each process's address space, indexed by pid (nil = no
	// such process): sim.Build numbers pids 1..nCores. nProcs counts the
	// live ones.
	procs  []*AddressSpace
	nProcs int
}

// NewOS creates an OS over the given address map. reserveDRAM frames of DRAM
// are withheld from first-touch data placement (for page tables and
// controller metadata such as the in-DRAM PRT/PCT).
func NewOS(m Map, reserveDRAM uint64) *OS {
	a := NewAllocator(m)
	a.ReserveDRAM = reserveDRAM
	return &OS{
		alloc: a,
		store: &tableStore{},
	}
}

// Allocator exposes the frame allocator (used by the HMC to place its
// in-DRAM metadata tables).
func (o *OS) Allocator() *Allocator { return o.alloc }

// Map returns the physical address map.
func (o *OS) Map() Map { return o.alloc.Map() }

// NewProcess creates an address space for pid. It panics if pid exists
// or is negative: either always indicates a harness bug.
func (o *OS) NewProcess(pid int) *AddressSpace {
	if pid < 0 {
		panic(fmt.Sprintf("mem: negative pid %d", pid))
	}
	if _, ok := o.Process(pid); ok {
		panic(fmt.Sprintf("mem: process %d already exists", pid))
	}
	root, ok := o.alloc.AllocTable()
	if !ok {
		panic("mem: out of memory allocating PGD")
	}
	o.store.add(root)
	as := &AddressSpace{
		pid:        pid,
		root:       root,
		store:      o.store,
		alloc:      o.alloc,
		tableCount: 1,
		region:     ^uint64(0),
	}
	as.tables[PGD] = root
	if pid >= len(o.procs) {
		o.procs = append(o.procs, make([]*AddressSpace, pid+1-len(o.procs))...)
	}
	o.procs[pid] = as
	o.nProcs++
	return as
}

// Process returns the address space for pid.
func (o *OS) Process(pid int) (*AddressSpace, bool) {
	if uint(pid) >= uint(len(o.procs)) || o.procs[pid] == nil {
		return nil, false
	}
	return o.procs[pid], true
}

// IsPageTable reports whether frame p holds a page table. The memory
// controller pins such frames: swapping a page-table frame out of DRAM
// would break the MMU Driver's assumption that PTE lines live in DRAM.
func (o *OS) IsPageTable(p PPN) bool { return o.store.table(p) != nil }

// WalkError is the panic value WalkVA aborts with when a translation cannot
// be completed: it carries the faulting (pid, va) so the run-isolation layer
// can report which access died instead of a bare allocator error. Unwrap
// exposes the underlying cause (e.g. out-of-memory from the allocator).
type WalkError struct {
	PID int
	VA  VAddr
	Err error
}

func (e *WalkError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("mem: walk for unknown pid %d (va %#x)", e.PID, uint64(e.VA))
	}
	return fmt.Sprintf("mem: walk failed for pid %d va %#x: %v", e.PID, uint64(e.VA), e.Err)
}

func (e *WalkError) Unwrap() error { return e.Err }

// WalkVA performs a software-visible translation for pid/va, mapping the
// page (and any missing table levels) on first touch. The returned Walk
// carries the physical entry addresses the hardware walker will read.
// Failure panics with *WalkError; the sim layer recovers it into a RunError.
func (o *OS) WalkVA(pid int, va VAddr) Walk {
	as, ok := o.Process(pid)
	if !ok {
		panic(&WalkError{PID: pid, VA: va})
	}
	w, _, err := as.Touch(va)
	if err != nil {
		panic(&WalkError{PID: pid, VA: va, Err: err})
	}
	return w
}

// Stats reports frame usage.
type OSStats struct {
	UsedDRAMFrames uint64
	UsedNVMFrames  uint64
	Processes      int
}

// Stats returns a snapshot of OS-level memory usage.
func (o *OS) Stats() OSStats {
	return OSStats{
		UsedDRAMFrames: o.alloc.UsedDRAMFrames(),
		UsedNVMFrames:  o.alloc.UsedNVMFrames(),
		Processes:      o.nProcs,
	}
}
