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

// part names one side of a transfer inside a running swap: one of the
// move's three slots, or a swap buffer.
type part uint8

const (
	srcPart  part = iota // the slot Data's data leaves
	dstPart              // Dst
	homePart             // the victim's home slot
	bufPart              // a swap buffer
)

// transfer copies one unit from one part to another, line by line and
// pipelined: each line's write issues when its read returns. A transfer
// to the buffer only reads; one from the buffer drains, writing every line
// as soon as its stage starts.
type transfer struct{ from, to part }

// shapes lists each exchange shape's transfers, stage by stage, in the
// order their lines are read. A stage starts only when every transfer of
// the one before has fully completed — the barrier the optimized slow swap
// relies on (Figure 5).
var shapes = [...][][]transfer{
	Pair: {{{srcPart, dstPart}, {dstPart, srcPart}}},
	Slow: {
		{{dstPart, homePart}, {homePart, bufPart}}, // the victim home; its home's data to a buffer
		{{srcPart, dstPart}, {bufPart, srcPart}},   // the data in; the buffer to the data's old slot
	},
	Restore: {{{dstPart, srcPart}, {srcPart, dstPart}}}, // the slot going home is read first
}

// opLine is one line a running swap reads. The lines live in their swap's
// record with a pre-bound read-return continuation, so the per-line cost
// of a page swap (64 lines each way at 4KB) stays off the allocator in
// steady state.
type opLine struct {
	r      *swap
	status lineStatus
	stage  int
	src    mem.Addr
	dst    mem.Addr // written when the read returns, unless fill is set
	fill   bool     // the line only fills a swap buffer
	// waiters are the demand requests parked until the read returns; the
	// array keeps its capacity across reuses.
	waiters []waiter
	readFn  func()
}

// swap is one running move. Records are pooled: the line array, each
// line's waiter array and the continuations keep their capacity and
// bindings across reuses, and the single write-return continuation is
// shared by every line write of the swap.
type swap struct {
	m          Move
	done       func(Move)
	lines      []opLine // the lines the move reads, stage by stage, in read issue order
	ends       [2]int   // lines[ends[s-1]:ends[s]] are stage s's (ends[-1] = 0)
	began      uint64
	stageBegan uint64
	stage      int
	nextRead   int
	inflight   int
	readsLeft  int // current stage
	writesLeft int // current stage
	waiting    int // demand requests parked on the swap's lines
	writeFn    func()
}

// stageLines returns the lines the current stage reads.
func (r *swap) stageLines() []opLine {
	from := 0
	if r.stage > 0 {
		from = r.ends[r.stage-1]
	}
	return r.lines[from:r.ends[r.stage]]
}

// addr returns the first byte of part p (not the buffer).
func (r *swap) addr(p part) mem.Addr {
	s := r.m.Src
	switch p {
	case dstPart:
		s = r.m.Dst
	case homePart:
		s = r.m.Victim
	}
	return mem.Addr(s) << r.m.Shift
}

// waiter is one demand request parked on an in-flight swap line: its
// release continuation plus its blame vector (nil when attribution is off
// or the request carries none), stamped with the interference wait when
// the line's read returns.
type waiter struct {
	fn func()
	v  *attrib.Vector
}

// SwapEngine executes moves against the memory modules and services
// demand requests for in-flight units from the swap buffers (Section
// III-D3).
type SwapEngine struct {
	sim     *engine.Sim
	issue   IssueFunc
	promote PromoteFunc

	running []*swap // in start order
	// lineOwner finds the running line reading a source line, keyed by
	// line number, for interception; every line a running swap reads is in
	// it from Start until the swap's commit.
	lineOwner mem.Table[*opLine]
	pool      mem.Pool[swap]
	stats     SwapEngineStats

	// inj (nil when off) forces buffer exhaustion and demand storms; set
	// through Controller.SetInjector.
	inj *check.Injector

	admit Admission // the stage in front of the engine; drains after each completion hook

	// probe (nil when off) receives every accepted swap's lifecycle;
	// isDRAM splits its traffic by module. Both set by the controller.
	probe  obs.Probes
	isDRAM func(mem.Addr) bool
	lastID uint64 // the most recently accepted swap's ID
}

// NewSwapEngine builds a swap engine that issues line traffic through
// issue; promote (optional) re-prioritises an in-flight line when a demand
// request is waiting on it.
func NewSwapEngine(sim *engine.Sim, issue IssueFunc, promote PromoteFunc) *SwapEngine {
	if promote == nil {
		promote = func(mem.Addr) {}
	}
	e := &SwapEngine{
		sim:     sim,
		issue:   issue,
		promote: promote,
	}
	e.admit.e = e
	return e
}

// getSwap pops a pooled record with room for n lines, minting (and
// binding continuations) only while the pool warms. Lines past the end
// keep their bindings, so a record reslices within its capacity for free.
func (e *SwapEngine) getSwap(n int) *swap {
	r := e.pool.Get()
	if r == nil {
		r = &swap{}
		r.writeFn = func() { e.writeDone(r) }
	}
	if cap(r.lines) < n {
		r.lines = make([]opLine, n)
		for i := range r.lines {
			l := &r.lines[i]
			l.r = r
			l.readFn = func() { e.readDone(l) }
		}
	}
	r.lines = r.lines[:n]
	return r
}

// Stats returns a snapshot of the counters.
func (e *SwapEngine) Stats() SwapEngineStats { return e.stats }

// Busy returns the number of running swaps.
func (e *SwapEngine) Busy() int { return len(e.running) }

// CanStart reports whether a new swap would be admitted.
func (e *SwapEngine) CanStart() bool { return len(e.running) < MaxOps }

// Start begins moving m: the engine reads and writes the slots m.Src,
// m.Dst and (for a Slow) m.Victim in units of 1<<m.Shift bytes, stamps
// m.Why with the swap's identity, and hands m to done once the last write
// has returned. It returns false (and counts a rejection) when all swap
// buffers are busy; the caller decides whether to queue or drop. A line
// that a running swap already reads panics: callers hold their slots (see
// Segments.Busy).
func (e *SwapEngine) Start(m Move, done func(Move)) bool {
	if !e.CanStart() || (e.inj != nil && e.inj.SwapStartBlocked()) {
		e.stats.OpsRejected++
		return false
	}
	stages := shapes[m.Shape]
	unit := mem.Addr(1) << m.Shift
	r := e.getSwap(3 * int(unit/mem.LineSize)) // no shape reads more than 3 units
	r.m, r.done = m, done
	now := e.sim.Now()
	r.began, r.stageBegan, r.stage = now, now, 0
	i := 0
	for si, st := range stages {
		for _, tr := range st {
			if tr.from == bufPart {
				continue // drains are written at stage start
			}
			src, dst := r.addr(tr.from), mem.Addr(0)
			if tr.to != bufPart {
				dst = r.addr(tr.to)
			}
			for off := mem.Addr(0); off < unit; off += mem.LineSize {
				ln := mem.LineNum(src + off)
				if e.lineOwner.Has(ln) {
					panic(fmt.Sprintf("hmc: line %#x is already read by a running swap", uint64(src+off)))
				}
				l := &r.lines[i]
				i++
				l.status, l.stage = lineUnissued, si
				l.src, l.dst, l.fill = src+off, dst+off, tr.to == bufPart
				e.lineOwner.Put(ln, l)
			}
		}
		r.ends[si] = i
	}
	r.lines = r.lines[:i]
	e.running = append(e.running, r)
	e.stats.OpsStarted++
	e.lastID++
	w := &r.m.Why
	w.Addr, w.Victim, w.HasVictim = uint64(mem.Addr(m.Data)<<m.Shift), uint64(r.addr(homePart)), true
	w.ID, w.Start, w.NVMWrites = e.lastID, now, 0
	if e.probe != nil {
		w.Slot = int((w.ID - 1) % MaxOps)
		w.StageCount = len(stages)
		w.BytesDRAM, w.BytesNVM = e.moveBytes(r)
		e.probe.SwapStarted(w)
	}
	e.startStage(r)
	if e.inj != nil {
		e.injectStorm(r)
	}
	return true
}

// moveBytes sums a swap's transfer traffic per memory module: each read
// is charged to the module owning its source slot, each write to the
// module owning its destination.
func (e *SwapEngine) moveBytes(r *swap) (dramBytes, nvmBytes uint64) {
	unit := uint64(1) << r.m.Shift
	for _, st := range shapes[r.m.Shape] {
		for _, tr := range st {
			for _, side := range [2]part{tr.from, tr.to} {
				switch {
				case side == bufPart:
				case e.isDRAM(r.addr(side)):
					dramBytes += unit
				default:
					nvmBytes += unit
				}
			}
		}
	}
	return dramBytes, nvmBytes
}

// injectStorm schedules a burst of synthetic demand interceptions at the
// first-stage source lines of a just-started swap, staggered a cycle apart
// so they land across the buffered/issued/unissued states. Each touch goes
// through TryService like a real post-translation demand access; a touch
// that arrives after the swap completed simply misses lineOwner and is a
// no-op.
func (e *SwapEngine) injectStorm(r *swap) {
	first := r.lines[:r.ends[0]]
	n := min(e.inj.StormTouches(), len(first))
	for j := 0; j < n; j++ {
		src := first[j].src
		e.sim.After(uint64(j)+1, func() { e.TryService(src, nil, stormSink) })
	}
}

// stormSink swallows the completion of an injected storm touch.
func stormSink() {}

func (e *SwapEngine) startStage(r *swap) {
	r.nextRead = 0
	r.readsLeft = len(r.stageLines())
	r.writesLeft = 0
	unit := mem.Addr(1) << r.m.Shift
	for _, tr := range shapes[r.m.Shape][r.stage] {
		if tr.to == bufPart {
			continue
		}
		r.writesLeft += int(unit / mem.LineSize)
		if tr.from == bufPart {
			// Drain: the data is already buffered; write it all now.
			for a := r.addr(tr.to); a < r.addr(tr.to)+unit; a += mem.LineSize {
				e.issueWrite(r, a)
			}
		}
	}
	e.pump(r)
}

// pump issues buffered reads up to the in-flight cap.
func (e *SwapEngine) pump(r *swap) {
	lines := r.stageLines()
	for r.inflight < maxInflightReads && r.nextRead < len(lines) {
		l := &lines[r.nextRead]
		r.nextRead++
		if l.status != lineUnissued {
			continue // escalated earlier by a demand waiter
		}
		e.issueRead(r, l, memsim.PrioSwap)
	}
}

func (e *SwapEngine) issueRead(r *swap, l *opLine, prio memsim.Priority) {
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
	if !l.fill {
		e.issueWrite(r, l.dst)
	}
	if r.readsLeft == 0 && r.writesLeft == 0 {
		e.finishStage(r)
	} else {
		e.pump(r)
	}
}

func (e *SwapEngine) issueWrite(r *swap, dst mem.Addr) {
	e.stats.LinesWritten++
	if e.probe != nil && !e.isDRAM(dst) {
		r.m.Why.NVMWrites++
	}
	e.issue(dst, true, memsim.PrioSwap, r.writeFn)
}

// writeDone is the pre-bound continuation shared by every line write of a
// swap (writes carry no per-line state).
func (e *SwapEngine) writeDone(r *swap) {
	r.writesLeft--
	if r.readsLeft == 0 && r.writesLeft == 0 {
		e.finishStage(r)
	}
}

func (e *SwapEngine) finishStage(r *swap) {
	now := e.sim.Now()
	e.probe.SwapStage(&r.m.Why, r.stage, r.stageBegan, now, uint64(len(r.stageLines())))
	r.stageBegan = now
	if r.stage+1 < len(shapes[r.m.Shape]) {
		r.stage++
		e.startStage(r)
		return
	}
	// The swap is complete: dismantle buffer interception, report the
	// commit, then hand the move to its hook.
	for i, o := range e.running {
		if o == r {
			n := len(e.running) - 1
			copy(e.running[i:], e.running[i+1:])
			e.running[n] = nil
			e.running = e.running[:n]
			break
		}
	}
	for i := range r.lines {
		e.lineOwner.Del(mem.LineNum(r.lines[i].src))
	}
	e.stats.OpsCompleted++
	e.stats.OpCycles += now - r.began
	if r.waiting != 0 {
		// Every waiter registers on a source line of some stage, and every
		// stage's reads complete before the swap does.
		panic("hmc: swap completed with demand waiters still pending")
	}
	// The commit and the victim's eviction reach the subscribers first,
	// since the hook may start a swap on the evicted unit. The record goes
	// back to the pool before the hook, which may start a swap that reuses
	// it; the settle event follows the hook, once the scheme's tables
	// reflect the commit.
	e.probe.SwapCommitted(&r.m.Why, now)
	m, done := r.m, r.done
	r.done = nil
	e.pool.Put(r)
	done(m)
	e.admit.drain()
	e.probe.SwapSettled(now)
}

// TryService intercepts a demand access to line addr (post-translation). If
// the line belongs to a unit a running swap reads, the request is serviced
// from the swap buffers — immediately if the line has been read, or as
// soon as its read returns — and TryService reports true. done runs when
// the data is available.
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

// Involved reports whether a running swap reads addr's line. Every line of
// a slot a running swap holds is involved from Start until the commit, so
// Segments.Busy asks it about the slot's first line.
func (e *SwapEngine) Involved(addr mem.Addr) bool {
	return e.lineOwner.Has(mem.LineNum(addr))
}

// Audit reports end-of-run invariant violations: a quiesced engine has no
// running swaps, no intercepted lines, every pooled record back on its
// free list, and as many completions as starts (stats reset only at
// quiescence, so the two counters cover the same set of swaps); its
// admission stage holds no request.
func (e *SwapEngine) Audit(a *check.Audit) {
	e.admit.audit(a)
	a.Checkf(len(e.running) == 0,
		"swap engine: %d op(s) still running at quiescence", len(e.running))
	a.Checkf(e.lineOwner.Len() == 0,
		"swap engine: %d line(s) still intercepted with no running op", e.lineOwner.Len())
	a.Checkf(e.pool.Live() == 0,
		"swap engine: %d pooled op record(s) never returned", e.pool.Live())
	a.Checkf(e.stats.OpsStarted == e.stats.OpsCompleted,
		"swap engine: %d op(s) started but %d completed", e.stats.OpsStarted, e.stats.OpsCompleted)
}

// DescribeRunning renders every running swap for a crashdump, sorted.
func (e *SwapEngine) DescribeRunning() []string {
	out := make([]string, 0, len(e.running))
	for _, r := range e.running {
		label := r.m.Why.Label
		if label == "" {
			label = "swap"
		}
		out = append(out, fmt.Sprintf(
			"op %q tag=%d began=%d stage=%d/%d readsLeft=%d writesLeft=%d inflight=%d waiters=%d",
			label, r.m.Tag, r.began, r.stage+1, len(shapes[r.m.Shape]),
			r.readsLeft, r.writesLeft, r.inflight, r.waiting))
	}
	sort.Strings(out)
	return out
}

// ResetStats zeroes the engine counters (e.g. after warm-up); running
// swaps are unaffected.
func (e *SwapEngine) ResetStats() { e.stats = SwapEngineStats{} }
