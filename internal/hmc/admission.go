package hmc

import (
	"pageseer/internal/check"
	"pageseer/internal/mem"
)

// Ask is one swap request: the unit to bring to fast memory, its class, the
// cycle it entered admission and the scheme's payload.
type Ask struct {
	Unit  Seg
	Class int
	At    uint64
	Arg   any
}

// AdmitPolicy is a scheme's declared swap admission. Depth bounds the
// queued units; at 0 nothing queues and a request the engine refuses is
// dropped. A request queued longer than Expiry cycles (0: no limit) is
// dropped when it leaves the queue. Upgrade keeps one request per unit: a
// stronger class re-queues the unit, an equal or weaker one is absorbed.
// Classes names each class in probe events; classes above 0 drain first.
type AdmitPolicy struct {
	Depth   int
	Expiry  uint64
	Upgrade bool
	Classes []string
}

// Admission is the one stage between a scheme and the swap engine: it
// starts what the engine can take, holds or drops the rest by the scheme's
// policy, and reports each request and queue wait to the probe.
type Admission struct {
	e     *SwapEngine
	shift uint // log2 of the unit, for probe addresses
	pol   AdmitPolicy
	start func(Ask) int
	gate  func() bool

	lanes    [2][]Ask       // classes above 0, then class 0
	index    mem.Table[int] // each queued unit's class, under Upgrade; a record of another class is stale
	queued   int            // live queued requests
	declined *uint64        // counts overflows and expiries
}

// NewAdmission configures the stage in front of g's swap engine and embeds
// it in g. start returns an exchange outcome, NoMove, or Queued to wait
// again; gate, when set, declines a fresh request before it queues;
// declined counts overflows and expiries (nil under a policy with neither).
func NewAdmission(g *Segments, pol AdmitPolicy, start func(Ask) int, gate func() bool, declined *uint64) {
	a := &g.ctl.Engine.admit
	a.shift, a.pol, a.start, a.gate, a.declined = g.shift, pol, start, gate, declined
	g.Admission = a
}

// Submit hands the stage a request, stamped now. It returns the start's
// outcome when the request met the engine, Queued when it waits or a
// queued request for its unit absorbed it, and Declined when the gate or
// a full queue refused it.
func (a *Admission) Submit(q Ask) int {
	q.At = a.e.sim.Now()
	if prev, ok := a.index.Get(uint64(q.Unit)); ok {
		if q.Class > prev {
			a.queued-- // re-queued: its old record goes stale
			a.enqueue(q)
		}
		return Queued
	}
	a.e.probe.SwapRequested(uint64(q.Unit)<<a.shift, a.pol.Classes[q.Class], q.At)
	if a.gate != nil && !a.gate() {
		return Declined
	}
	if a.pol.Depth > 0 && !a.e.CanStart() {
		return a.enqueue(q)
	}
	return a.try(q)
}

func (a *Admission) try(q Ask) int {
	out := a.start(q)
	if out == Queued {
		a.enqueue(q)
	}
	return out
}

// enqueue queues q, stamped now.
func (a *Admission) enqueue(q Ask) int {
	q.At = a.e.sim.Now()
	if a.queued >= a.pol.Depth {
		*a.declined++
		return Declined
	}
	a.queued++
	if a.pol.Upgrade {
		a.index.Put(uint64(q.Unit), q.Class)
	}
	i := min(q.Class, 1) ^ 1 // lane 0 for classes above 0, lane 1 for class 0
	a.lanes[i] = append(a.lanes[i], q)
	return Queued
}

// drain starts queued requests, first lane first, while the engine can
// take them, skipping stale records and dropping expired requests. A start
// re-queues only into its own lane, so an emptied lane stays empty.
func (a *Admission) drain() {
	now := a.e.sim.Now()
	for i := range a.lanes {
		for len(a.lanes[i]) > 0 && a.e.CanStart() {
			q := a.lanes[i][0]
			a.lanes[i] = a.lanes[i][1:]
			if k, ok := a.index.Get(uint64(q.Unit)); a.pol.Upgrade && (!ok || k != q.Class) {
				continue
			}
			a.index.Del(uint64(q.Unit))
			if a.queued--; a.pol.Expiry > 0 && now-q.At > a.pol.Expiry {
				*a.declined++
				continue
			}
			a.e.probe.SwapQueued(uint64(q.Unit)<<a.shift, a.pol.Classes[q.Class], q.At, now)
			a.try(q)
		}
	}
}

// Pending returns the number of queued requests.
func (a *Admission) Pending() int { return a.queued }

// audit reports a request or an indexed unit left at quiescence, when each
// has started, expired or been dropped (stale lane records may remain).
func (a *Admission) audit(au *check.Audit) {
	au.Checkf(a.queued == 0 && a.index.Len() == 0,
		"admission: %d request(s) and %d indexed unit(s) still queued at quiescence", a.queued, a.index.Len())
}
