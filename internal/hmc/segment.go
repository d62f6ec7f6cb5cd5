package hmc

import (
	"fmt"

	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/obs"
)

// Seg numbers a swap unit of an exchange core from physical address 0: a
// 2KB segment for PoM and MemPod, a 4KB page for PageSeer. Like every
// Remap unit it is both a data identity (the unit's OS-visible home) and a
// slot.
type Seg uint64

// Exchange outcomes, and the admission stage's (Admission.Submit).
const (
	Exchanged  = iota // the exchange started
	SlotBusy          // a slot is held by a running exchange, or the target is pinned
	EngineFull        // Engine.Start declined: every swap buffer is busy
	NoMove            // the scheme found no legal move
	Queued            // the request waits for a free swap buffer
	Declined          // the request was refused before it could queue
)

// Exchange shapes. In each, Data's data moves into slot Dst and the unit
// whose data sits in Dst (the victim) leaves it.
const (
	// Pair: the victim takes Data's old slot. One stage, 2 reads and 2
	// writes; PoM's fast swap and MemPod's migration are Pairs.
	Pair = iota
	// Slow is PageSeer's optimized slow swap (Figure 5): the victim
	// returns to its home slot, and the data held there rides a swap
	// buffer to Data's old slot. Two stages, 3 reads and 3 writes.
	Slow
	// Restore is a Pair that sends Data home and refreshes no remap-cache
	// entry (PageSeer's pair restore, Section III-C).
	Restore
)

// Move is one exchange, and the swap engine's description of the swap
// that carries it out. The scheme sets Shape, Data, Dst, Key, Tag and the
// identity fields of Why (Trigger, Request, HintPath, Label); Segments.Start
// sets the slots, Src and Victim, and the unit, Shift. The engine moves
// units of 1<<Shift bytes between the slots Src, Dst and (for a Slow) the
// victim's home, stamps the rest of Why, and hands the Move to the
// completion hook.
type Move struct {
	Shape     int
	Data, Dst Seg
	Src       Seg    // the slot Data's data leaves
	Victim    Seg    // the unit whose data sits in Dst; its home slot is Victim too
	Shift     uint   // log2 of the unit's bytes
	Key       uint64 // the remap-cache entry the commit refreshes
	Tag       int    // labels the swap (PageSeer: the swap kind)
	Why       obs.Swap
}

// Segments is the exchange core all three schemes share: the unit remap
// and its translation and integrity check, the DRAM-resident remap table
// behind its metadata cache, the busy and pinned slot checks, the three
// exchange shapes with their commit, and (once NewAdmission ran) the
// admission stage in front of the swap engine. A scheme keeps only its policy
// — which unit moves where, and when — and embeds the core, which
// implements Manager's TranslateLine and CheckIntegrity for it.
type Segments struct {
	ctl    *Controller
	scheme string // error prefix
	shift  uint   // log2 of the swap unit
	fast   Seg    // DRAM slots: units below it are fast
	remap  *Remap
	region MetaRegion
	cache  *MetaCache

	// committed is the scheme's hook, run last in every commit; commitFn
	// is the commit, bound once for the swap engine.
	committed func(Move)
	commitFn  func(Move)
	*Admission
}

// NewSegments builds a scheme's exchange core over swap units of
// 1<<shift bytes: it re-keys the remap and the oracle to that unit,
// reserves tableBytes of DRAM for the remap table (4B per entry —
// PageSeer's 3.5B PRT entries are laid out 4B apart too —
// cache.EntriesPerLine to a line) and has the controller build the remap
// cache over it.
// committed runs after each exchange's commit.
func NewSegments(ctl *Controller, scheme string, shift uint, cache MetaCacheConfig, tableBytes uint64, committed func(Move)) *Segments {
	g := &Segments{
		ctl:       ctl,
		scheme:    scheme,
		shift:     shift,
		fast:      Seg(ctl.Layout.DRAMBytes >> shift),
		remap:     ctl.NewRemap(shift),
		committed: committed,
	}
	g.commitFn = g.commit
	g.region = ctl.AllocMetaRegion(tableBytes, 4)
	g.cache = ctl.NewMetaCache(cache, g.region)
	return g
}

// RemapCache returns the remap-table cache (PoM's SRC, PageSeer's PRTc).
func (g *Segments) RemapCache() *MetaCache { return g.cache }

// Remap returns the unit permutation the remap table holds.
func (g *Segments) Remap() *Remap { return g.remap }

// Loc returns the slot holding unit s's data.
func (g *Segments) Loc(s Seg) Seg { return Seg(g.remap.Loc(uint64(s))) }

// Owner returns the unit whose data slot holds.
func (g *Segments) Owner(slot Seg) Seg { return Seg(g.remap.Owner(uint64(slot))) }

// Unit returns the unit holding address a.
func (g *Segments) Unit(a mem.Addr) Seg { return Seg(a >> g.shift) }

// FastUnits returns the number of DRAM slots: slots below it are fast.
func (g *Segments) FastUnits() Seg { return g.fast }

func (g *Segments) base(s Seg) mem.Addr { return mem.Addr(s) << g.shift }

// TranslateLine implements Manager.
func (g *Segments) TranslateLine(addr mem.Addr) mem.Addr {
	return g.base(g.Loc(g.Unit(addr))) | addr&(1<<g.shift-1)
}

// CheckIntegrity implements Manager.
func (g *Segments) CheckIntegrity() error {
	if err := g.ctl.Oracle.VerifyAll(g.remap.Loc); err != nil {
		return fmt.Errorf("%s: %w", g.scheme, err)
	}
	return nil
}

// Lookup reads remap-cache entry key on r's critical path, then routes r.
func (g *Segments) Lookup(r *Request, key uint64) {
	g.cache.Access(key, false, r.Meta.V, r.RouteFn())
}

// Busy reports whether a running exchange holds slot: whether the swap
// engine reads the slot's first line.
func (g *Segments) Busy(slot Seg) bool { return g.ctl.Engine.Involved(g.base(slot)) }

// Pinned reports whether slot lies in a frame no exchange may move (see
// Controller.Pinned).
func (g *Segments) Pinned(slot Seg) bool { return g.ctl.Pinned(mem.PageOf(g.base(slot))) }

// Exchange starts a Pair moving unit data's data into slot dst, requested
// now by the regular trigger; key names the remap-cache entry the commit
// refreshes.
func (g *Segments) Exchange(data, dst Seg, key uint64) int {
	return g.Start(Move{Data: data, Dst: dst, Key: key, Why: obs.Swap{Request: g.ctl.Sim.Now()}})
}

// Start starts exchange m. It returns SlotBusy when a slot the exchange
// needs is held by a running exchange or Dst is pinned, and EngineFull
// when the swap engine declines.
func (g *Segments) Start(m Move) int {
	m.Src, m.Victim, m.Shift = g.Loc(m.Data), g.Owner(m.Dst), g.shift
	if g.Busy(m.Dst) || g.Busy(m.Src) || g.Pinned(m.Dst) || m.Shape == Slow && g.Busy(m.Victim) {
		return SlotBusy
	}
	if !g.ctl.Engine.Start(m, g.commitFn) {
		return EngineFull
	}
	return Exchanged
}

// Apply makes an exchange's placements and oracle exchanges at once: the
// first half of every commit, and the whole of the functional
// fast-forward's instant one.
func (g *Segments) Apply(shape int, data, dst Seg) {
	src, victim := g.Loc(data), g.Owner(dst)
	if shape == Slow {
		g.remap.Place(uint64(victim), uint64(victim))
	}
	g.remap.Place(uint64(data), uint64(dst))
	g.ctl.Oracle.Exchange(uint64(dst), uint64(src))
	if shape == Slow {
		g.ctl.Oracle.Exchange(uint64(src), uint64(victim))
	}
}

// commit is every exchange's completion: the placements, the oracle, the
// remap-table line write of the destination slot, the remap-cache refresh
// (none for a Restore), and the scheme's hook.
func (g *Segments) commit(m Move) {
	g.Apply(m.Shape, m.Data, m.Dst)
	g.ctl.IssueLine(g.region.EntryAddr(uint64(m.Dst)), true, memsim.PrioSwap, nil)
	if m.Shape != Restore {
		g.cache.Prefetch(m.Key)
	}
	g.committed(m)
}
