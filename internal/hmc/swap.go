package hmc

import (
	"fmt"
	"sort"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/obs"
	"pageseer/internal/obs/attrib"
)

// NoAddr marks an absent side of a Transfer (buffer fill or buffer drain).
const NoAddr = ^mem.Addr(0)

// Transfer is one segment movement inside a swap operation.
//
//   - Src and Dst set: copy Src -> Dst, line by line, pipelined (each line's
//     write issues when its read returns).
//   - Src only (Dst == NoAddr): read the segment into a swap buffer.
//   - Dst only (Src == NoAddr): drain a previously-buffered segment to Dst.
type Transfer struct {
	Src   mem.Addr
	Dst   mem.Addr
	Bytes uint64
}

// Stage is a set of transfers that proceed concurrently. The next stage
// starts only when every transfer of the current one has fully completed —
// the barrier PageSeer's optimized slow swap relies on (Figure 5).
type Stage []Transfer

// Op is a complete swap operation: optimized slow swaps, fast swaps and
// plain migrations are all choreographies of stages. The embedded
// obs.Swap is the op's identity: the scheme fills in what moves where and
// why, the engine stamps the rest on acceptance and reports the op's
// lifecycle to the controller's probe under it.
type Op struct {
	obs.Swap
	Stages     []Stage
	OnComplete func()

	// Tag lets the owning manager label the op (swap kind) for stats.
	Tag int
}

// Reads and Writes return the total page-read/page-write volume of the op
// in segments, for cost assertions (optimized slow swap: 3 reads, 3 writes).
func (o *Op) Reads() (n int) {
	for _, st := range o.Stages {
		for _, tr := range st {
			if tr.Src != NoAddr {
				n++
			}
		}
	}
	return n
}

// Writes returns the number of segment writes in the op.
func (o *Op) Writes() (n int) {
	for _, st := range o.Stages {
		for _, tr := range st {
			if tr.Dst != NoAddr {
				n++
			}
		}
	}
	return n
}

// IssueFunc routes one line access to the right memory module.
type IssueFunc func(addr mem.Addr, write bool, prio memsim.Priority, done func())

// PromoteFunc raises an already-issued line access to demand priority.
type PromoteFunc func(addr mem.Addr)

// The swap machinery's sizing (modelling choices: Section III-D3 places
// swap buffers in the memory modules but does not size them).
const (
	// MaxOps is the number of concurrent swap operations the swap buffers
	// can hold (buffer pairs in the DRAM and NVM modules).
	MaxOps = 8
	// maxInflightReads bounds outstanding swap line-reads per op, so one
	// page move does not flood a channel queue.
	maxInflightReads = 32
	// bufferLatency is the CPU-cycle cost of servicing a demand request
	// from a swap buffer.
	bufferLatency = 30
)

// SwapEngineStats counts swap-machinery activity.
type SwapEngineStats struct {
	OpsStarted    uint64
	OpsCompleted  uint64
	OpsRejected   uint64
	LinesRead     uint64
	LinesWritten  uint64
	BufHits       uint64 // demand served from an already-filled buffer line
	BufWaits      uint64 // demand that waited for the line to be buffered
	EscalatedRead uint64 // buffer reads promoted to demand priority
	// OpCycles sums each completed op's start-to-finish duration, so
	// OpCycles/OpsCompleted is the mean swap latency.
	OpCycles uint64
}

// Add accumulates o into s (sampled-window aggregation).
func (s *SwapEngineStats) Add(o SwapEngineStats) {
	s.OpsStarted += o.OpsStarted
	s.OpsCompleted += o.OpsCompleted
	s.OpsRejected += o.OpsRejected
	s.LinesRead += o.LinesRead
	s.LinesWritten += o.LinesWritten
	s.BufHits += o.BufHits
	s.BufWaits += o.BufWaits
	s.EscalatedRead += o.EscalatedRead
	s.OpCycles += o.OpCycles
}

type lineStatus uint8

const (
	lineUnissued lineStatus = iota
	lineIssued
	lineBuffered
)

// opLine is one line of a running op. Records are pooled on the engine with
// a pre-bound read-return continuation, so the per-line cost of a page swap
// (64 lines each way at 4KB) stays off the allocator in steady state.
type opLine struct {
	e      *SwapEngine
	r      *runningOp
	status lineStatus
	stage  int
	src    mem.Addr
	dst    mem.Addr // NoAddr if fill-only
	// waiters are the demand requests parked until the read returns; the
	// array keeps its capacity across reuses.
	waiters []waiter
	readFn  func()
}

// runningOp is one in-flight swap operation. Pooled like opLine: the
// per-stage order slices keep their capacity across reuses, and the single
// write-return continuation is shared by every line write of the op.
type runningOp struct {
	e          *SwapEngine
	op         *Op
	began      uint64
	stageBegan uint64
	stage      int
	order      [][]*opLine // the op's lines in read issue order, per stage
	nextRead   int
	inflight   int
	readsLeft  int // current stage
	writesLeft int // current stage
	waiting    int // demand requests parked on the op's lines
	writeFn    func()
}

// waiter is one demand request parked on an in-flight swap line: its
// release continuation plus its blame vector (nil when attribution is off
// or the request carries none), stamped with the interference wait when
// the line's read returns.
type waiter struct {
	fn func()
	v  *attrib.Vector
}

// SwapEngine executes swap operations against the memory modules and
// services demand requests for in-flight pages from the swap buffers
// (Section III-D3).
type SwapEngine struct {
	sim     *engine.Sim
	issue   IssueFunc
	promote PromoteFunc

	running []*runningOp // in start order
	// lineOwner finds the running line reading a src line, keyed by line
	// number, for interception. When ops overlap on a line, the last one
	// to start owns it.
	lineOwner mem.Table[*opLine]
	opPool    mem.Pool[runningOp]
	linePool  mem.Pool[opLine]
	stats     SwapEngineStats

	// inj (nil when off) forces buffer exhaustion and demand storms; set
	// through Controller.SetInjector.
	inj *check.Injector

	// probe (nil when off) receives every accepted op's lifecycle; isDRAM
	// splits its traffic by module. Both set by the controller.
	probe  obs.Probes
	isDRAM func(mem.Addr) bool
	lastID uint64 // the most recently accepted op's ID
}

// NewSwapEngine builds a swap engine that issues line traffic through
// issue; promote (optional) re-prioritises an in-flight line when a demand
// request is waiting on it.
func NewSwapEngine(sim *engine.Sim, issue IssueFunc, promote PromoteFunc) *SwapEngine {
	if promote == nil {
		promote = func(mem.Addr) {}
	}
	return &SwapEngine{
		sim:     sim,
		issue:   issue,
		promote: promote,
	}
}

func (e *SwapEngine) getOp() *runningOp {
	r := e.opPool.Get()
	if r == nil {
		r = &runningOp{e: e}
		r.writeFn = func() { r.e.writeDone(r) }
	}
	return r
}

func (e *SwapEngine) putOp(r *runningOp) {
	for i := range r.order {
		clear(r.order[i])
		r.order[i] = r.order[i][:0]
	}
	r.op = nil
	r.began, r.stageBegan = 0, 0
	r.stage = 0
	r.nextRead, r.inflight, r.readsLeft, r.writesLeft = 0, 0, 0, 0
	e.opPool.Put(r)
}

func (e *SwapEngine) getLine() *opLine {
	l := e.linePool.Get()
	if l == nil {
		l = &opLine{e: e}
		l.readFn = func() { l.e.readDone(l) }
	}
	return l
}

func (e *SwapEngine) putLine(l *opLine) {
	l.r = nil
	l.status = lineUnissued
	l.stage, l.src, l.dst = 0, 0, 0
	e.linePool.Put(l)
}

// Stats returns a snapshot of the counters.
func (e *SwapEngine) Stats() SwapEngineStats { return e.stats }

// Busy returns the number of running operations.
func (e *SwapEngine) Busy() int { return len(e.running) }

// CanStart reports whether a new operation would be admitted.
func (e *SwapEngine) CanStart() bool { return len(e.running) < MaxOps }

// Start begins executing op. It returns false (and counts a rejection) when
// all swap buffers are busy; the caller decides whether to queue or drop.
func (e *SwapEngine) Start(op *Op) bool {
	if !e.CanStart() || (e.inj != nil && e.inj.SwapStartBlocked()) {
		e.stats.OpsRejected++
		return false
	}
	if len(op.Stages) == 0 {
		panic("hmc: swap op with no stages")
	}
	r := e.getOp()
	r.op = op
	r.began = e.sim.Now()
	r.stageBegan = e.sim.Now()
	if cap(r.order) < len(op.Stages) {
		r.order = make([][]*opLine, len(op.Stages))
	} else {
		r.order = r.order[:len(op.Stages)]
	}
	for si, st := range op.Stages {
		for _, tr := range st {
			if tr.Bytes == 0 || tr.Bytes%mem.LineSize != 0 {
				panic(fmt.Sprintf("hmc: transfer of %d bytes not line-aligned", tr.Bytes))
			}
			if tr.Src == NoAddr && tr.Dst == NoAddr {
				panic("hmc: transfer with neither source nor destination")
			}
			if tr.Src == NoAddr {
				continue // drain transfers handled at stage start
			}
			for off := uint64(0); off < tr.Bytes; off += mem.LineSize {
				src := tr.Src + mem.Addr(off)
				dst := NoAddr
				if tr.Dst != NoAddr {
					dst = tr.Dst + mem.Addr(off)
				}
				if o, _ := e.lineOwner.Get(mem.LineNum(src)); o != nil && o.r == r {
					panic(fmt.Sprintf("hmc: line %#x read twice in one op", uint64(src)))
				}
				l := e.getLine()
				l.r = r
				l.stage, l.src, l.dst = si, src, dst
				r.order[si] = append(r.order[si], l)
				e.lineOwner.Put(mem.LineNum(src), l)
			}
		}
	}
	e.running = append(e.running, r)
	e.stats.OpsStarted++
	e.lastID++
	op.ID, op.Start, op.NVMWrites = e.lastID, r.began, 0
	if e.probe != nil {
		op.Slot = int((op.ID - 1) % MaxOps)
		op.StageCount = len(op.Stages)
		op.BytesDRAM, op.BytesNVM = e.opBytes(op)
		e.probe.SwapStarted(&op.Swap)
	}
	e.startStage(r)
	if e.inj != nil {
		e.injectStorm(r)
	}
	return true
}

// opBytes sums an op's transfer traffic per memory module: each read is
// charged to the module owning its source line, each write to the module
// owning its destination.
func (e *SwapEngine) opBytes(op *Op) (dramBytes, nvmBytes uint64) {
	charge := func(a mem.Addr, n uint64) {
		switch {
		case a == NoAddr:
		case e.isDRAM(a):
			dramBytes += n
		default:
			nvmBytes += n
		}
	}
	for _, st := range op.Stages {
		for _, tr := range st {
			charge(tr.Src, tr.Bytes)
			charge(tr.Dst, tr.Bytes)
		}
	}
	return dramBytes, nvmBytes
}

// injectStorm schedules a burst of synthetic demand interceptions at the
// first-stage source lines of a just-started op, staggered a cycle apart so
// they land across the buffered/issued/unissued states. Each touch goes
// through TryService like a real post-translation demand access; a touch
// that arrives after the op completed simply misses lineOwner and is a no-op.
func (e *SwapEngine) injectStorm(r *runningOp) {
	n := e.inj.StormTouches()
	if n == 0 || len(r.order) == 0 {
		return
	}
	order := r.order[0]
	if n > len(order) {
		n = len(order)
	}
	for j := 0; j < n; j++ {
		src := order[j].src
		e.sim.After(uint64(j)+1, func() { e.TryService(src, nil, stormSink) })
	}
}

// stormSink swallows the completion of an injected storm touch.
func stormSink() {}

func (e *SwapEngine) startStage(r *runningOp) {
	st := r.op.Stages[r.stage]
	r.nextRead = 0
	r.readsLeft = len(r.order[r.stage])
	r.writesLeft = 0
	for _, tr := range st {
		nLines := int(tr.Bytes / mem.LineSize)
		if tr.Dst != NoAddr {
			r.writesLeft += nLines
		}
		if tr.Src == NoAddr {
			// Drain: data already buffered, write everything now.
			for off := uint64(0); off < tr.Bytes; off += mem.LineSize {
				e.issueWrite(r, tr.Dst+mem.Addr(off))
			}
		}
	}
	if r.readsLeft == 0 && r.writesLeft == 0 {
		e.finishStage(r)
		return
	}
	e.pump(r)
}

// pump issues buffered reads up to the in-flight cap.
func (e *SwapEngine) pump(r *runningOp) {
	order := r.order[r.stage]
	for r.inflight < maxInflightReads && r.nextRead < len(order) {
		l := order[r.nextRead]
		r.nextRead++
		if l.status != lineUnissued {
			continue // escalated earlier by a demand waiter
		}
		e.issueRead(r, l, memsim.PrioSwap)
	}
}

func (e *SwapEngine) issueRead(r *runningOp, l *opLine, prio memsim.Priority) {
	l.status = lineIssued
	r.inflight++
	e.stats.LinesRead++
	e.issue(l.src, false, prio, l.readFn)
}

// readDone is the pre-bound continuation of every line read.
func (e *SwapEngine) readDone(l *opLine) {
	r := l.r
	r.inflight--
	l.status = lineBuffered
	r.readsLeft--
	// Release demand requests waiting on this line. The wait so far was
	// spent behind the swap's own transfer — swap interference by
	// definition; the buffer latency that follows is charged by the
	// completion stamp (CompSwapBuf).
	if len(l.waiters) > 0 {
		now := e.sim.Now()
		for _, w := range l.waiters {
			w.v.Take(attrib.CompSwapXfer, now)
			e.sim.After(bufferLatency, w.fn)
		}
		r.waiting -= len(l.waiters)
		clear(l.waiters)
		l.waiters = l.waiters[:0]
	}
	if l.dst != NoAddr {
		e.issueWrite(r, l.dst)
	}
	if r.readsLeft == 0 && r.writesLeft == 0 {
		e.finishStage(r)
	} else {
		e.pump(r)
	}
}

func (e *SwapEngine) issueWrite(r *runningOp, dst mem.Addr) {
	e.stats.LinesWritten++
	if e.probe != nil && !e.isDRAM(dst) {
		r.op.NVMWrites++
	}
	e.issue(dst, true, memsim.PrioSwap, r.writeFn)
}

// writeDone is the pre-bound continuation shared by every line write of an
// op (writes carry no per-line state).
func (e *SwapEngine) writeDone(r *runningOp) {
	r.writesLeft--
	if r.readsLeft == 0 && r.writesLeft == 0 {
		e.finishStage(r)
	}
}

func (e *SwapEngine) finishStage(r *runningOp) {
	now := e.sim.Now()
	e.probe.SwapStage(&r.op.Swap, r.stage, r.stageBegan, now, uint64(len(r.order[r.stage])))
	r.stageBegan = now
	if r.stage+1 < len(r.op.Stages) {
		r.stage++
		e.startStage(r)
		return
	}
	// Operation complete: dismantle buffer interception, report the commit,
	// then let OnComplete update the manager's remap state.
	for i, o := range e.running {
		if o == r {
			n := len(e.running) - 1
			copy(e.running[i:], e.running[i+1:])
			e.running[n] = nil
			e.running = e.running[:n]
			break
		}
	}
	for _, ls := range r.order {
		for _, l := range ls {
			// A later op that reads the same line took it over; its entry
			// stays.
			if o, _ := e.lineOwner.Get(mem.LineNum(l.src)); o == l {
				e.lineOwner.Del(mem.LineNum(l.src))
			}
			e.putLine(l)
		}
	}
	e.stats.OpsCompleted++
	e.stats.OpCycles += now - r.began
	if r.waiting != 0 {
		// Every waiter registers on a src line of some stage, and every
		// stage's reads complete before the op does.
		panic("hmc: swap op completed with demand waiters still pending")
	}
	// Release before OnComplete: the callback may start a new op that
	// reuses this record. The commit and the victim's eviction reach the
	// subscribers first, since the callback may start a swap on the
	// evicted unit; the settle event follows it, once the manager's tables
	// reflect the commit.
	op := r.op
	e.putOp(r)
	e.probe.SwapCommitted(&op.Swap, now)
	if op.OnComplete != nil {
		op.OnComplete()
	}
	e.probe.SwapSettled(now)
}

// TryService intercepts a demand access to line addr (post-translation). If
// the line belongs to a page participating in a running swap, the request
// is serviced from the swap buffers — immediately if the line has been read,
// or as soon as its read returns — and TryService reports true. done runs
// when the data is available.
func (e *SwapEngine) TryService(addr mem.Addr, v *attrib.Vector, done func()) bool {
	l, ok := e.lineOwner.Get(mem.LineNum(addr))
	if !ok {
		return false
	}
	r, src := l.r, l.src
	switch l.status {
	case lineBuffered:
		e.stats.BufHits++
		e.sim.After(bufferLatency, done)
	case lineIssued:
		e.stats.BufWaits++
		e.addWaiter(l, v, done)
		// Requested-line-first: the read is already in a channel queue at
		// background priority; promote it (Section III-D1).
		e.stats.EscalatedRead++
		e.promote(src)
	case lineUnissued:
		e.stats.BufWaits++
		e.addWaiter(l, v, done)
		if l.stage == r.stage {
			// Requested-line-first: promote this read past the queue and
			// issue it at demand priority (Section III-D1).
			e.stats.EscalatedRead++
			e.issueRead(r, l, memsim.PrioDemand)
		}
	}
	return true
}

func (e *SwapEngine) addWaiter(l *opLine, v *attrib.Vector, done func()) {
	l.waiters = append(l.waiters, waiter{fn: done, v: v})
	l.r.waiting++
}

// Involved reports whether addr's line belongs to a running swap (tests).
func (e *SwapEngine) Involved(addr mem.Addr) bool {
	return e.lineOwner.Has(mem.LineNum(addr))
}

// Audit reports end-of-run invariant violations: a quiesced engine has no
// running ops, no intercepted lines, every pooled record back on its free
// list, and as many completions as starts (stats reset only at quiescence,
// so the two counters cover the same set of ops).
func (e *SwapEngine) Audit(a *check.Audit) {
	a.Checkf(len(e.running) == 0,
		"swap engine: %d op(s) still running at quiescence", len(e.running))
	a.Checkf(e.lineOwner.Len() == 0,
		"swap engine: %d line(s) still intercepted with no running op", e.lineOwner.Len())
	a.Checkf(e.opPool.Live() == 0,
		"swap engine: %d pooled op record(s) never returned", e.opPool.Live())
	a.Checkf(e.linePool.Live() == 0,
		"swap engine: %d pooled line record(s) never returned", e.linePool.Live())
	a.Checkf(e.stats.OpsStarted == e.stats.OpsCompleted,
		"swap engine: %d op(s) started but %d completed", e.stats.OpsStarted, e.stats.OpsCompleted)
}

// DescribeRunning renders every in-flight op for a crashdump, sorted.
func (e *SwapEngine) DescribeRunning() []string {
	out := make([]string, 0, len(e.running))
	for _, r := range e.running {
		label := r.op.Label
		if label == "" {
			label = "swap"
		}
		out = append(out, fmt.Sprintf(
			"op %q tag=%d began=%d stage=%d/%d readsLeft=%d writesLeft=%d inflight=%d waiters=%d",
			label, r.op.Tag, r.began, r.stage+1, len(r.op.Stages),
			r.readsLeft, r.writesLeft, r.inflight, r.waiting))
	}
	sort.Strings(out)
	return out
}

// ResetStats zeroes the engine counters (e.g. after warm-up); running
// operations are unaffected.
func (e *SwapEngine) ResetStats() { e.stats = SwapEngineStats{} }
