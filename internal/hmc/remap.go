package hmc

import "pageseer/internal/mem"

// Remap is a permutation of swap units over physical memory: the slot that
// holds each unit's data, and the unit whose data each slot holds. Units
// are numbered from physical address 0 at the scheme's swap granularity
// (4KB pages for PageSeer, 2KB segments for PoM and MemPod), so a unit
// number is both a data identity — the unit's OS-visible home — and a slot.
//
// Both directions are dense arrays, like the in-DRAM tables they model (the
// paper's PRT, PoM's SRT), over the units of the frames a run can name
// (Controller.Seal); a unit outside them panics with a *mem.DomainError.
// Each entry stores its unit's offset from home modulo 2^32, so the zero
// value is the identity of a freshly booted machine and building a table
// writes nothing.
type Remap struct {
	loc   []uint32 // loc[d]: slot holding d's data, minus d
	owner []uint32 // owner[s]: unit whose data slot s holds, minus s
	moved int      // units whose data is away from home
}

// NewRemap returns an identity permutation over units swap units.
func NewRemap(units uint64) *Remap {
	r := &Remap{}
	r.size(units)
	return r
}

// size makes r the identity over units units.
func (r *Remap) size(units uint64) {
	r.loc, r.owner, r.moved = make([]uint32, units), make([]uint32, units), 0
}

// Units returns the number of units the table covers.
func (r *Remap) Units() uint64 { return uint64(len(r.loc)) }

// Loc returns the slot currently holding unit d's data.
func (r *Remap) Loc(d uint64) uint64 {
	mem.CheckFrame("hmc: remap", d, uint64(len(r.loc)))
	return uint64(uint32(d) + r.loc[d])
}

// Owner returns the unit whose data slot s currently holds.
func (r *Remap) Owner(s uint64) uint64 {
	mem.CheckFrame("hmc: remap", s, uint64(len(r.owner)))
	return uint64(uint32(s) + r.owner[s])
}

// Moved returns how many units' data is away from home.
func (r *Remap) Moved() int { return r.moved }

// Exchange swaps the contents of slots a and b.
func (r *Remap) Exchange(a, b uint64) {
	da, db := r.Owner(a), r.Owner(b)
	r.put(db, a)
	r.put(da, b)
}

// Place moves unit d's data into slot s; the unit s held takes d's old slot.
func (r *Remap) Place(d, s uint64) { r.Exchange(r.Loc(d), s) }

// put records that slot s holds unit d's data.
func (r *Remap) put(d, s uint64) {
	off := uint32(s) - uint32(d)
	switch old := r.loc[d]; {
	case old == 0 && off != 0:
		r.moved++
	case old != 0 && off == 0:
		r.moved--
	}
	r.loc[d] = off
	r.owner[s] = -off
}
