// Custom-policy: plug a user-defined management scheme into the hybrid
// memory controller framework and race it against PageSeer.
//
// The framework accepts any hmc.Manager: this example implements "Eager" —
// an aggressive policy that swaps an NVM page to DRAM on its very first
// miss (no history, no thresholds). It demonstrates the full extension
// surface: remap state, the swap engine, which runs an hmc.Move (here a
// Pair of two page frames) through its buffers and hands it back to a
// completion hook, the integrity oracle, and the controller's pinned
// frames. Each Move carries its swap's identity (obs.Swap: what comes
// in, what goes out, why); the swap engine reports the swap's
// lifecycle to every attached observer, so the policy gets ledger,
// pagemap and trace rows with no observer code of its own — the run below
// prints its swap accuracy from the ledger. The result also shows *why*
// the paper needs history: eager swapping wins when reuse is long, and
// drowns in its own traffic when it is not.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/obs"
	"pageseer/internal/sim"
)

// Eager is the custom manager: first NVM miss -> immediate page swap.
type Eager struct {
	ctl      *hmc.Controller
	remap    *hmc.Remap // page permutation: pairs of swapped pages
	inflight map[mem.PPN]bool
	next     mem.PPN // round-robin DRAM victim cursor
	swaps    uint64
}

// NewEager installs the policy on a controller.
func NewEager(ctl *hmc.Controller) *Eager {
	e := &Eager{
		ctl:      ctl,
		remap:    ctl.NewRemap(mem.PageShift),
		inflight: make(map[mem.PPN]bool),
	}
	ctl.SetManager(e)
	return e
}

func (e *Eager) Name() string { return "Eager" }

func (e *Eager) frameOf(p mem.PPN) mem.PPN { return mem.PPN(e.remap.Loc(uint64(p))) }

// TranslateLine implements hmc.Manager.
func (e *Eager) TranslateLine(a mem.Addr) mem.Addr {
	page := mem.PageOf(a)
	return e.frameOf(page).Addr() + (a - page.Addr())
}

// CheckIntegrity implements hmc.Manager.
func (e *Eager) CheckIntegrity() error {
	return e.ctl.Oracle.VerifyAll(e.remap.Loc)
}

// HandleRequest implements hmc.Manager.
func (e *Eager) HandleRequest(r *hmc.Request) {
	page := mem.PageOf(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk &&
		!e.ctl.Layout.IsDRAMPage(e.frameOf(page)) {
		e.trySwap(page)
	}
	actual := e.TranslateLine(r.Line)
	if r.Meta.Writeback {
		if !e.ctl.Engine.TryService(actual, nil, func() {}) {
			e.ctl.ServeMemory(r, actual)
		}
		return
	}
	if e.ctl.Engine.TryService(actual, r.Meta.V, func() { e.ctl.ServeBuffer(r) }) {
		return
	}
	e.ctl.ServeMemory(r, actual)
}

func (e *Eager) trySwap(page mem.PPN) {
	if e.inflight[page] || e.frameOf(page) != page || !e.ctl.Engine.CanStart() {
		return
	}
	// Round-robin victim over DRAM frames, skipping pinned frames (page
	// tables, controller tables), in-flight frames and frames already
	// hosting a swapped page.
	dramPages := mem.PPN(e.ctl.Layout.DRAMPages())
	var victim mem.PPN
	found := false
	for i := mem.PPN(0); i < dramPages; i++ {
		f := (e.next + i) % dramPages
		if e.ctl.Pinned(f) || e.inflight[f] || e.frameOf(f) != f {
			continue
		}
		victim = f
		e.next = f + 1
		found = true
		break
	}
	if !found {
		return
	}
	e.inflight[page], e.inflight[victim] = true, true
	m := hmc.Move{
		Shape: hmc.Pair, Shift: mem.PageShift,
		Data: hmc.Seg(page), Src: hmc.Seg(page), Dst: hmc.Seg(victim), Victim: hmc.Seg(victim),
		Why: obs.Swap{Trigger: obs.TrigRegular, Request: e.ctl.Sim.Now()},
	}
	if !e.ctl.Engine.Start(m, e.swapped) {
		delete(e.inflight, page)
		delete(e.inflight, victim)
	}
}

// swapped commits a finished swap: the page and its victim trade frames.
func (e *Eager) swapped(m hmc.Move) {
	e.remap.Exchange(uint64(m.Data), uint64(m.Victim))
	e.ctl.Oracle.Exchange(uint64(m.Data), uint64(m.Victim))
	e.swaps++
	delete(e.inflight, mem.PPN(m.Data))
	delete(e.inflight, mem.PPN(m.Victim))
}

// MMUHint implements hmc.Manager (Eager has no use for hints).
func (e *Eager) MMUHint(mmu.Hint) {}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run races Eager against PageSeer and writes the two result lines to w.
func run(w io.Writer) error {
	const wl = "barnes"
	cfg := sim.DefaultConfig()
	cfg.Workload = wl
	cfg.MaxCores = 4
	cfg.InstrPerCore = 1_000_000
	cfg.Warmup = 500_000
	cfg.Obs.Ledger = true

	// The driver wires cores, TLBs, caches and memories around whatever
	// manager the factory installs.
	var eager *Eager
	sys, err := sim.BuildWithManager(cfg, func(ctl *hmc.Controller) hmc.Manager {
		eager = NewEager(ctl)
		return eager
	})
	if err != nil {
		return err
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "custom 'Eager' policy on %s: IPC %.3f, AMMAT %.1f, %d swaps (%.0f%% useful)\n",
		wl, res.IPC, res.AMMAT, eager.swaps, res.Effectiveness.Accuracy*100)

	// And PageSeer on the identical workload.
	cfg2 := cfg
	cfg2.Scheme = sim.SchemePageSeer
	sys2, err := sim.Build(cfg2)
	if err != nil {
		return err
	}
	res2, err := sys2.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "PageSeer on %s:              IPC %.3f, AMMAT %.1f, %.0f swaps (%.0f%% useful)\n",
		wl, res2.IPC, res2.AMMAT, res2.SwapsPerKI*float64(res2.Instructions)/1000, res2.Effectiveness.Accuracy*100)
	return nil
}
