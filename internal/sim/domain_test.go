package sim

import (
	"fmt"
	"strings"
	"testing"

	"pageseer/internal/core"
	"pageseer/internal/mem"
)

// TestPerFrameDomain: Build sizes every per-frame table to the frames the
// run can name, every DRAM frame and the NVM frames the footprint mapped,
// far fewer than physical memory holds. The last frame of the domain
// indexes each table; the first frame past it panics with a
// *mem.DomainError that names the table and the frame, on the paths that
// translate through the remap or add PCT or HPT state.
func TestPerFrameDomain(t *testing.T) {
	for _, s := range []Scheme{SchemePoM, SchemePageSeer} {
		cfg := DefaultConfig()
		cfg.Workload = "GemsFDTD"
		cfg.Scheme = s
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frames, layout := sys.OS.Allocator().Named(), sys.Ctl.Layout
		if frames <= layout.DRAMPages() || frames >= layout.Total()>>mem.PageShift {
			t.Fatalf("%s: domain of %d frames, want more than DRAM's %d and fewer than %d",
				s, frames, layout.DRAMPages(), layout.Total()>>mem.PageShift)
		}
		units := frames << mem.PageShift >> sys.Ctl.UnitShift()
		tables := map[string]func(i uint64){
			"hmc: remap": func(i uint64) { sys.Ctl.Manager().TranslateLine(mem.Addr(i << sys.Ctl.UnitShift())) },
		}
		if ps := sys.PageSeer; ps != nil {
			dram, nvm := ps.HPTs()
			tables["core: HPT"] = func(i uint64) {
				for _, h := range []*core.HPT{dram, nvm} {
					h.Touch(mem.PPN(i))
				}
			}
			tables["core: PCT"] = func(i uint64) { ps.Correlator().Snapshot(mem.PPN(i)) }
		}
		for name, index := range tables {
			index(units - 1)
			func() {
				defer func() {
					e, ok := recover().(*mem.DomainError)
					if !ok || e.Table != name || e.Frame != units {
						t.Fatalf("%s %s: index %#x panicked with %v", s, name, units, e)
					}
					if msg := e.Error(); !strings.Contains(msg, fmt.Sprintf("frame %#x", units)) {
						t.Fatalf("%s %s: message %q does not name frame %#x", s, name, msg, units)
					}
				}()
				index(units)
			}()
		}
	}
}
