// Package mem models the physical side of the hybrid memory system: the
// flat DRAM+NVM address map, the physical frame allocator, x86-style
// 4-level page tables stored in simulated physical frames, and a minimal OS
// that owns per-process address spaces with first-touch allocation.
package mem

const (
	// PageShift is log2 of the page size (4KB pages).
	PageShift = 12
	// PageSize is the size of a page in bytes.
	PageSize = 1 << PageShift
	// LineShift is log2 of the cache line size.
	LineShift = 6
	// LineSize is the cache line size in bytes.
	LineSize = 1 << LineShift
	// LinesPerPage is the number of cache lines in one page.
	LinesPerPage = PageSize / LineSize
	// EntriesPerTable is the number of 8-byte entries in one page-table level.
	EntriesPerTable = PageSize / 8
)

// Addr is a physical byte address.
type Addr uint64

// VAddr is a virtual byte address. Only the low 48 bits are used.
type VAddr uint64

// PPN is a physical page number (Addr >> PageShift).
type PPN uint64

// VPN is a virtual page number (VAddr >> PageShift).
type VPN uint64

// Addr returns the base physical address of the page.
func (p PPN) Addr() Addr { return Addr(p) << PageShift }

// PageOf returns the physical page number containing a.
func PageOf(a Addr) PPN { return PPN(a >> PageShift) }

// LineOf returns the line-aligned physical address containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// LineNum returns the number of the line containing a: the key of the
// line's entry in a Table.
func LineNum(a Addr) uint64 { return uint64(a) >> LineShift }

// VPageOf returns the virtual page number containing va.
func VPageOf(va VAddr) VPN { return VPN(va >> PageShift) }

// PageOffset returns the offset of va within its page.
func PageOffset(va VAddr) uint64 { return uint64(va) & (PageSize - 1) }

// Level identifies one step of a 4-level x86 page walk.
type Level int

// Page-walk levels, outermost first, as in Figure 1 of the paper.
const (
	PGD Level = iota // Page Global Directory (VA bits 47-39)
	PUD              // Page Upper Directory  (VA bits 38-30)
	PMD              // Page Middle Directory (VA bits 29-21)
	PTE              // Page Table Entry      (VA bits 20-12)
	NumLevels
)

func (l Level) String() string {
	switch l {
	case PGD:
		return "PGD"
	case PUD:
		return "PUD"
	case PMD:
		return "PMD"
	case PTE:
		return "PTE"
	}
	return "?"
}

// Index extracts the 9-bit page-table index for the given walk level.
func Index(va VAddr, l Level) uint64 {
	shift := uint(39 - 9*int(l))
	return (uint64(va) >> shift) & 0x1ff
}

// Map describes the flat physical address layout: DRAM occupies
// [0, DRAMBytes) and NVM occupies [DRAMBytes, DRAMBytes+NVMBytes).
type Map struct {
	DRAMBytes uint64
	NVMBytes  uint64
}

// Total returns the total physical capacity in bytes.
func (m Map) Total() uint64 { return m.DRAMBytes + m.NVMBytes }

// IsDRAM reports whether a falls in the DRAM range.
func (m Map) IsDRAM(a Addr) bool { return uint64(a) < m.DRAMBytes }

// IsDRAMPage reports whether the page lies in the DRAM range.
func (m Map) IsDRAMPage(p PPN) bool { return m.IsDRAM(p.Addr()) }

// DRAMPages returns the number of page frames in DRAM.
func (m Map) DRAMPages() uint64 { return m.DRAMBytes >> PageShift }

// NVMPages returns the number of page frames in NVM.
func (m Map) NVMPages() uint64 { return m.NVMBytes >> PageShift }

// Contains reports whether a is a valid physical address.
func (m Map) Contains(a Addr) bool { return uint64(a) < m.Total() }
