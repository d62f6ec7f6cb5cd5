package hmc

import (
	"fmt"

	"pageseer/internal/check"
	"pageseer/internal/mem"
	"pageseer/internal/obs"
)

// SegmentShift is log2 of SegmentBytes.
const SegmentShift = 11

// SegmentBytes is the swap unit of the segment schemes, PoM and MemPod.
const SegmentBytes = 1 << SegmentShift

// Seg numbers a 2KB segment from physical address 0. Like every Remap
// unit it is both a data identity (the segment's OS-visible home) and a
// slot.
type Seg uint64

// SegOf returns the segment holding address a.
func SegOf(a mem.Addr) Seg { return Seg(a >> SegmentShift) }

// Base returns the segment's first address.
func (s Seg) Base() mem.Addr { return mem.Addr(s) << SegmentShift }

// Exchange outcomes.
const (
	Exchanged  = iota // the exchange started
	SlotBusy          // a slot is held by a running exchange, or the target is pinned
	EngineFull        // Engine.Start declined: every swap buffer is busy
)

// Segments is the segment-swap core PoM and MemPod share: the 2KB segment
// remap and its translation and integrity check, the DRAM-resident remap
// table behind its metadata cache, the slots running exchanges hold, and
// the pair exchange with its commit. A scheme keeps only its policy — which
// segment moves where, and when — and embeds the core, which implements
// Manager's TranslateLine and CheckIntegrity for it.
type Segments struct {
	ctl    *Controller
	scheme string // error prefix
	remap  *Remap
	region MetaRegion
	cache  *MetaCache
	busy   mem.Table[struct{}] // slots a running exchange holds
	pool   mem.Pool[segSwap]

	// committed is the scheme's hook, run last in every commit.
	committed func(data Seg)
}

// segSwap is one running exchange. Records are pooled with their op, its
// one stage and the commit continuation bound in, so an exchange the
// engine declines allocates nothing.
type segSwap struct {
	op             Op
	stage          [1]Stage
	xfer           [2]Transfer
	data, src, dst Seg
	key            uint64
}

// NewSegments builds a scheme's segment core: it re-keys the remap and the
// oracle to segments, reserves tableBytes of DRAM for the remap table (4B
// entries, 16 to a line) and builds the remap cache over it. committed runs
// after each exchange's commit with the segment that moved in.
func NewSegments(ctl *Controller, scheme string, cache MetaCacheConfig, tableBytes uint64, committed func(data Seg)) *Segments {
	g := &Segments{
		ctl:       ctl,
		scheme:    scheme,
		remap:     ctl.NewRemap(SegmentShift),
		committed: committed,
	}
	g.region = ctl.AllocMetaRegion(tableBytes, 4)
	cache.EntriesPerLine = 16
	g.cache = NewMetaCache(ctl.Sim, cache, g.region, ctl.IssueLine)
	return g
}

// RemapCache returns the remap-table cache (PoM's SRC).
func (g *Segments) RemapCache() *MetaCache { return g.cache }

// Remap returns the segment permutation the remap table holds.
func (g *Segments) Remap() *Remap { return g.remap }

// Loc returns the slot holding segment s's data.
func (g *Segments) Loc(s Seg) Seg { return Seg(g.remap.Loc(uint64(s))) }

// Owner returns the segment whose data slot holds.
func (g *Segments) Owner(slot Seg) Seg { return Seg(g.remap.Owner(uint64(slot))) }

// TranslateLine implements Manager.
func (g *Segments) TranslateLine(addr mem.Addr) mem.Addr {
	s := SegOf(addr)
	return g.Loc(s).Base() + (addr - s.Base())
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
	g.cache.AccessV(key, false, r.Meta.V, r.RouteFn())
}

// Busy reports whether a running exchange holds slot.
func (g *Segments) Busy(slot Seg) bool { return g.busy.Has(uint64(slot)) }

// Pinned reports whether slot lies in a frame no exchange may move (see
// Controller.Pinned).
func (g *Segments) Pinned(slot Seg) bool { return g.ctl.Pinned(mem.PageOf(slot.Base())) }

// Exchange starts moving segment data's data into slot dst; dst's data
// takes data's current slot. key names the remap-cache entry the commit
// refreshes. It returns SlotBusy when either slot is held by a running
// exchange or dst is pinned, and EngineFull when the swap engine declines.
func (g *Segments) Exchange(data, dst Seg, key uint64) int {
	src := g.Loc(data)
	if g.Busy(dst) || g.Busy(src) || g.Pinned(dst) {
		return SlotBusy
	}
	x := g.pool.Get()
	if x == nil {
		x = &segSwap{}
		x.stage[0] = x.xfer[:]
		x.op.Stages = x.stage[:]
		x.op.OnComplete = func() { g.commit(x) }
	}
	x.data, x.src, x.dst, x.key = data, src, dst, key
	x.op.Swap = obs.Swap{
		Addr: uint64(data.Base()), Victim: uint64(g.Owner(dst).Base()), HasVictim: true,
		Trigger: obs.TrigRegular, Request: g.ctl.Sim.Now(),
	}
	x.xfer[0] = Transfer{Src: src.Base(), Dst: dst.Base(), Bytes: SegmentBytes}
	x.xfer[1] = Transfer{Src: dst.Base(), Dst: src.Base(), Bytes: SegmentBytes}
	if !g.ctl.Engine.Start(&x.op) {
		g.pool.Put(x)
		return EngineFull
	}
	g.busy.Put(uint64(dst), struct{}{})
	g.busy.Put(uint64(src), struct{}{})
	return Exchanged
}

// commit is every exchange's completion: the remap, then the oracle, then
// the remap-table line write, the cache refresh, and the scheme's hook.
// The data that sat in dst lands where data used to be, not at its own
// home (PoM's fast swap, Section II-B).
func (g *Segments) commit(x *segSwap) {
	g.remap.Place(uint64(x.data), uint64(x.dst))
	g.ctl.Oracle.Exchange(uint64(x.dst), uint64(x.src))
	g.ctl.IssueLine(g.region.EntryAddr(uint64(x.dst)), true, PrioSwap, nil)
	g.cache.Prefetch(x.key)
	g.busy.Del(uint64(x.dst))
	g.busy.Del(uint64(x.src))
	data := x.data
	// Release before the hook: it may start the next exchange.
	g.pool.Put(x)
	g.committed(data)
}

// Audit reports exchanges still running at quiescence.
func (g *Segments) Audit(a *check.Audit) {
	a.Checkf(g.pool.Live() == 0,
		"%s: %d exchange record(s) never committed", g.scheme, g.pool.Live())
	a.Checkf(g.busy.Len() == 0,
		"%s: %d slot(s) still held by exchanges at quiescence", g.scheme, g.busy.Len())
}
