package mem

import "fmt"

// DomainError is the panic value of a per-frame table indexed outside its
// domain, the frames a run can name (Allocator.Named). The tables are
// sized once the footprint is mapped, so such an index is a simulator bug,
// and the message names the table and the frame.
type DomainError struct {
	Table  string
	Frame  uint64 // the index, in the table's unit
	Frames uint64 // the domain's size in that unit
}

func (e *DomainError) Error() string {
	return fmt.Sprintf("%s: frame %#x outside the per-frame domain of %d frames", e.Table, e.Frame, e.Frames)
}

// CheckFrame panics with a *DomainError unless frame < frames. It inlines
// to one compare, which also lets the compiler drop the caller's bounds
// check.
func CheckFrame(table string, frame, frames uint64) {
	if frame >= frames {
		panic(&DomainError{Table: table, Frame: frame, Frames: frames})
	}
}
