package hmc

import (
	"fmt"

	"pageseer/internal/check"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/obs"
)

// Seg numbers a swap unit of an exchange core from physical address 0: a
// 2KB segment for PoM and MemPod, a 4KB page for PageSeer. Like every
// Remap unit it is both a data identity (the unit's OS-visible home) and a
// slot.
type Seg uint64

// Exchange outcomes.
const (
	Exchanged  = iota // the exchange started
	SlotBusy          // a slot is held by a running exchange, or the target is pinned
	EngineFull        // Engine.Start declined: every swap buffer is busy
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

// Move is one exchange. The scheme sets Shape, Data, Dst, Key, Tag and the
// identity fields of Why (Trigger, Request, HintPath, Label); Start sets
// Victim and Why's Addr and Victim. The commit hook receives it back.
type Move struct {
	Shape     int
	Data, Dst Seg
	Victim    Seg
	Key       uint64 // the remap-cache entry the commit refreshes
	Tag       int    // labels the op (PageSeer: the swap kind)
	Why       obs.Swap
}

// Segments is the exchange core all three schemes share: the unit remap
// and its translation and integrity check, the DRAM-resident remap table
// behind its metadata cache, the slots running exchanges hold, and the
// three exchange shapes with their commit. A scheme keeps only its policy
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
	busy   mem.Table[struct{}] // slots a running exchange holds
	pool   mem.Pool[exchange]

	// committed is the scheme's hook, run last in every commit.
	committed func(Move)
}

// exchange is one running exchange. Records are pooled with their op, its
// stages and the commit continuation bound in, so no exchange allocates in
// steady state.
type exchange struct {
	op    Op
	stage [2]Stage
	xfer  [4]Transfer
	m     Move
	src   Seg
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

// Busy reports whether a running exchange holds slot.
func (g *Segments) Busy(slot Seg) bool { return g.busy.Has(uint64(slot)) }

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
	src := g.Loc(m.Data)
	m.Victim = g.Owner(m.Dst)
	if g.Busy(m.Dst) || g.Busy(src) || g.Pinned(m.Dst) || m.Shape == Slow && g.Busy(m.Victim) {
		return SlotBusy
	}
	x := g.pool.Get()
	if x == nil {
		x = &exchange{}
		x.stage[0], x.stage[1] = x.xfer[:2], x.xfer[2:]
		x.op.OnComplete = func() { g.commit(x) }
	}
	x.m, x.src = m, src
	x.op.Swap = m.Why
	x.op.Addr, x.op.Victim, x.op.HasVictim = uint64(g.base(m.Data)), uint64(g.base(m.Victim)), true
	x.op.Tag = m.Tag
	s, d, n := g.base(src), g.base(m.Dst), uint64(1)<<g.shift
	x.op.Stages = x.stage[:1]
	switch m.Shape {
	case Pair:
		x.xfer[0], x.xfer[1] = Transfer{s, d, n}, Transfer{d, s, n}
	case Restore: // the slot going home is read first
		x.xfer[0], x.xfer[1] = Transfer{d, s, n}, Transfer{s, d, n}
	case Slow:
		h := g.base(m.Victim)
		x.xfer = [4]Transfer{
			{d, h, n},      // the victim home
			{h, NoAddr, n}, // its home's data to a buffer
			{s, d, n},      // the data in
			{NoAddr, s, n}, // the buffer to the data's old slot
		}
		x.op.Stages = x.stage[:2]
	}
	if !g.ctl.Engine.Start(&x.op) {
		g.pool.Put(x)
		return EngineFull
	}
	g.busy.Put(uint64(m.Dst), struct{}{})
	g.busy.Put(uint64(src), struct{}{})
	if m.Shape == Slow {
		g.busy.Put(uint64(m.Victim), struct{}{})
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
func (g *Segments) commit(x *exchange) {
	m := x.m
	g.Apply(m.Shape, m.Data, m.Dst)
	g.ctl.IssueLine(g.region.EntryAddr(uint64(m.Dst)), true, memsim.PrioSwap, nil)
	if m.Shape != Restore {
		g.cache.Prefetch(m.Key)
	}
	g.busy.Del(uint64(m.Dst))
	g.busy.Del(uint64(x.src))
	if m.Shape == Slow {
		g.busy.Del(uint64(m.Victim))
	}
	// Release before the hook: it may start the next exchange.
	g.pool.Put(x)
	g.committed(m)
}

// Running returns the number of exchanges in flight.
func (g *Segments) Running() int { return g.pool.Live() }

// Audit reports exchanges still running at quiescence.
func (g *Segments) Audit(a *check.Audit) {
	a.Checkf(g.pool.Live() == 0,
		"%s: %d exchange record(s) never committed", g.scheme, g.pool.Live())
	a.Checkf(g.busy.Len() == 0,
		"%s: %d slot(s) still held by exchanges at quiescence", g.scheme, g.busy.Len())
}
