package hmc

import (
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
)

// Static is the no-swap baseline: every request goes to its OS-assigned
// location. It is the reference point for positive/negative accounting
// (under Static every access is, by construction, neutral) and a useful
// lower bound in experiments.
type Static struct {
	ctl *Controller
}

// NewStatic installs a Static manager on the controller.
func NewStatic(c *Controller) *Static {
	s := &Static{ctl: c}
	c.SetManager(s)
	return s
}

// Name implements Manager.
func (s *Static) Name() string { return "Static" }

// HandleRequest implements Manager: no remapping, straight to memory.
func (s *Static) HandleRequest(r *Request) { s.ctl.ServeMemory(r, r.Line) }

// MMUHint implements Manager (ignored: no swaps to trigger).
func (s *Static) MMUHint(mmu.Hint) {}

// TranslateLine implements Manager: identity.
func (s *Static) TranslateLine(addr mem.Addr) mem.Addr { return addr }

// CheckIntegrity implements Manager: nothing ever moves.
func (s *Static) CheckIntegrity() error {
	return s.ctl.Oracle.VerifyAll(func(d uint64) uint64 { return d })
}
