package mmu

import "pageseer/internal/mem"

// The page-walk cache's geometry: entries per intermediate level (PGD, PUD,
// PMD — the PTE level is never cached in the PWC, matching Section II-C of
// the paper) and the probe latency in CPU cycles. Modelling choice: the paper
// gives no PWC size, so these follow contemporary cores.
const (
	pwcEntriesPerLevel = 32
	pwcLatency         = 1
)

type pwcEntry struct {
	pid    int
	prefix uint64 // VA bits 47..(lower bound of the level's index)
	table  mem.PPN
	valid  bool
	lru    uint64
}

// PWC caches intermediate page-walk results. A hit at level L returns the
// frame of the *next* table, letting the walker skip all reads at levels
// <= L. The walker probes the deepest level first (PMD, then PUD, then PGD).
type PWC struct {
	levels [3][]pwcEntry // indexed by mem.PGD/PUD/PMD
	tick   uint64
	hits   [3]uint64
	misses uint64
}

// NewPWC builds an empty page-walk cache.
func NewPWC() *PWC {
	p := &PWC{}
	for l := range p.levels {
		p.levels[l] = make([]pwcEntry, pwcEntriesPerLevel)
	}
	return p
}

// Hits returns per-level hit counters (PGD, PUD, PMD).
func (p *PWC) Hits() [3]uint64 { return p.hits }

// Misses returns the number of lookups that missed at every level.
func (p *PWC) Misses() uint64 { return p.misses }

// prefix extracts the VA bits that identify the walk position covered by a
// hit at the given level: a PMD-level entry is identified by VA bits 47-21.
func prefix(va mem.VAddr, l mem.Level) uint64 {
	shift := uint(39 - 9*int(l))
	return uint64(va) >> shift
}

// Lookup returns the deepest cached level for va and the table frame it
// yields. ok=false means a full walk from the PGD is required. A hit at
// level L means the walker resumes reading at level L+1.
func (p *PWC) Lookup(pid int, va mem.VAddr) (level mem.Level, table mem.PPN, ok bool) {
	for l := mem.PMD; l >= mem.PGD; l-- {
		pf := prefix(va, l)
		for i := range p.levels[l] {
			e := &p.levels[l][i]
			if e.valid && e.pid == pid && e.prefix == pf {
				p.tick++
				e.lru = p.tick
				p.hits[l]++
				return l, e.table, true
			}
		}
	}
	p.misses++
	return 0, 0, false
}

// Insert records that at level l the walk of va yielded the next-table
// frame `table`.
func (p *PWC) Insert(pid int, va mem.VAddr, l mem.Level, table mem.PPN) {
	if l < mem.PGD || l > mem.PMD {
		panic("mmu: PWC caches only PGD/PUD/PMD levels")
	}
	pf := prefix(va, l)
	lv := p.levels[l]
	victim := &lv[0]
	for i := range lv {
		if lv[i].valid && lv[i].pid == pid && lv[i].prefix == pf {
			victim = &lv[i]
			break
		}
		if !lv[i].valid {
			victim = &lv[i]
			break
		}
		if lv[i].lru < victim.lru {
			victim = &lv[i]
		}
	}
	p.tick++
	*victim = pwcEntry{pid: pid, prefix: pf, table: table, valid: true, lru: p.tick}
}
