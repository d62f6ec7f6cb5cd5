package hmc

import "fmt"

// Oracle is the data-integrity checker for hardware page remapping. It
// tracks, outside the timed simulation, which physical slot currently holds
// each page's data (pages are identified by their original OS-visible frame
// number). After every swap the manager records the logical moves here;
// tests and debug runs then verify that the manager's architectural
// translation still points every page at the slot that holds its data —
// the invariant that, in real hardware, is the difference between a remap
// scheme and silent data corruption.
//
// Slots are at the segment granularity the manager swaps (4KB pages for
// PageSeer, 2KB segments for PoM/MemPod). The oracle keeps its own Remap,
// a second instance independent of the manager's: only the managers'
// Exchange calls fill it, and it is allocated on the first one, so a run
// that never swaps pays nothing. Any page permutation — including
// PageSeer's optimized slow swap — decomposes into Exchange calls.
type Oracle struct {
	units uint64
	slots *Remap // nil until the first Exchange: the identity
}

// NewOracle returns an identity-mapped oracle over units slots (every data
// item starts in its own slot, as at boot).
func NewOracle(units uint64) *Oracle { return &Oracle{units: units} }

// Units returns the number of slots the oracle covers.
func (o *Oracle) Units() uint64 { return o.units }

// Location returns the slot currently holding data.
func (o *Oracle) Location(data uint64) uint64 {
	if o.slots == nil {
		return data
	}
	return o.slots.Loc(data)
}

// Owner returns the data currently held in slot.
func (o *Oracle) Owner(slot uint64) uint64 {
	if o.slots == nil {
		return slot
	}
	return o.slots.Owner(slot)
}

// Exchange records that the contents of slots a and b were swapped.
func (o *Oracle) Exchange(a, b uint64) {
	if o.slots == nil {
		o.slots = NewRemap(o.units)
	}
	o.slots.Exchange(a, b)
}

// Verify checks translate against the oracle for the given data items:
// translate(data) must equal the slot that holds data.
func (o *Oracle) Verify(translate func(uint64) uint64, data []uint64) error {
	for _, d := range data {
		if err := o.verify(translate, d); err != nil {
			return err
		}
	}
	return nil
}

// VerifyAll checks every data item the oracle covers.
func (o *Oracle) VerifyAll(translate func(uint64) uint64) error {
	for d := uint64(0); d < o.Units(); d++ {
		if err := o.verify(translate, d); err != nil {
			return err
		}
	}
	return nil
}

func (o *Oracle) verify(translate func(uint64) uint64, d uint64) error {
	if got, want := translate(d), o.Location(d); got != want {
		return fmt.Errorf("oracle: data %#x translated to slot %#x but lives in %#x", d, got, want)
	}
	return nil
}
