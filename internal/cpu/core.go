// Package cpu models the processor side of the simulation: trace-driven
// cores with a bounded out-of-order memory window, issuing translated
// accesses into their private cache hierarchies.
//
// The core model is deliberately simple — the paper's evaluation is a
// memory-system study — but captures the two properties that decide IPC in
// such studies: non-memory instructions retire at one per cycle, and up to
// MaxOutstanding memory operations overlap (memory-level parallelism), so
// main-memory latency is partially hidden exactly as an OoO window hides it.
package cpu

import (
	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/obs/attrib"
	"pageseer/internal/workload"
)

// MaxOutstanding is the memory-level-parallelism window: how many memory
// operations a core keeps in flight at once (ROB/MSHR bound). Modelling
// choice: 8 is the memory-level parallelism the 4-wide out-of-order cores of
// Table I sustain on the memory-intensive workloads of the evaluation.
const MaxOutstanding = 8

// CoreStats reports one core's progress.
type CoreStats struct {
	Instructions uint64
	MemOps       uint64
	StartCycle   uint64
	FinishCycle  uint64
	Done         bool
}

// IPC returns instructions per cycle over the core's active window.
func (s CoreStats) IPC() float64 {
	if s.FinishCycle <= s.StartCycle {
		return 0
	}
	return float64(s.Instructions) / float64(s.FinishCycle-s.StartCycle)
}

// Core executes one workload trace through an MMU and an L1 cache.
type Core struct {
	sim *engine.Sim
	id  int
	pid int

	mmu *mmu.MMU
	l1  *cache.Cache
	gen workload.Generator

	budget      uint64
	outstanding int
	frontTime   uint64 // frontend's instruction clock
	pumping     bool

	// txnPool holds the per-access transaction records. The pool
	// never exceeds MaxOutstanding entries, and each entry binds its
	// continuation closures exactly once, so the steady-state demand path
	// issues memory operations without allocating.
	txnPool mem.Pool[memTxn]
	pumpFn  func()

	// att, when non-nil, receives each retired memory operation's blame
	// vector (cycle attribution). Set once before the run; nil costs the
	// demand path one branch per retire.
	att *attrib.Attrib

	stats  CoreStats
	onDone func(*Core)
}

// memTxn is one in-flight memory operation's reusable continuation record:
// the access payload plus the three stage closures (frontend issue, MMU
// translation done, L1 access done) pre-bound to the record. Pooling these
// replaces the three per-access closure allocations the pump/issue chain
// used to pay.
type memTxn struct {
	c   *Core
	acc workload.Access
	// v is the access's blame vector, embedded so attribution adds zero
	// allocations: the vector lives and dies with the pooled record.
	v attrib.Vector

	issueFn func()
	transFn func(mem.PPN)
	doneFn  func()
}

// NewCore wires a core to its MMU, L1, and trace generator.
func NewCore(sim *engine.Sim, id, pid int, m *mmu.MMU, l1 *cache.Cache, gen workload.Generator) *Core {
	c := &Core{sim: sim, id: id, pid: pid, mmu: m, l1: l1, gen: gen}
	c.pumpFn = c.pump
	return c
}

// getTxn pops a transaction record from the pool, minting (and binding) a
// new one only while the pool is still warming toward MaxOutstanding.
func (c *Core) getTxn() *memTxn {
	t := c.txnPool.Get()
	if t == nil {
		t = &memTxn{c: c}
		t.issueFn = func() { t.c.issue(t) }
		t.transFn = func(ppn mem.PPN) { t.c.translated(t, ppn) }
		t.doneFn = func() { t.c.accessDone(t) }
	}
	return t
}

func (c *Core) putTxn(t *memTxn) {
	t.acc = workload.Access{}
	c.txnPool.Put(t)
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() CoreStats { return c.stats }

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// Outstanding returns the number of in-flight memory operations (the run
// auditor asserts it is zero at quiescence).
func (c *Core) Outstanding() int { return c.outstanding }

// PID returns the process the core runs.
func (c *Core) PID() int { return c.pid }

// MMU returns the core's MMU (for stats aggregation).
func (c *Core) MMU() *mmu.MMU { return c.mmu }

// SetAttrib enables cycle attribution: every retired memory operation folds
// its blame vector into a. Call before RunTo; nil disables (the default).
func (c *Core) SetAttrib(a *attrib.Attrib) { c.att = a }

// L1 returns the core's L1 cache.
func (c *Core) L1() *cache.Cache { return c.l1 }

// RunTo (re)starts the core with a new cumulative instruction budget.
// onDone fires once the budget is retired and all in-flight memory
// operations have drained. Call again with a larger budget to continue
// (e.g. measurement after warm-up).
func (c *Core) RunTo(budget uint64, onDone func(*Core)) {
	if budget <= c.stats.Instructions {
		panic("cpu: RunTo budget already retired")
	}
	c.budget = budget
	c.onDone = onDone
	c.stats.Done = false
	if c.stats.StartCycle == 0 && c.stats.Instructions == 0 {
		c.stats.StartCycle = c.sim.Now()
	}
	// Kick the pump from the event loop so RunTo composes with a running sim.
	c.sim.After(0, c.pumpFn)
}

// MarkEpoch resets the per-epoch accounting (start cycle and instruction
// base) so IPC can be measured over the post-warm-up window only.
func (c *Core) MarkEpoch() {
	c.stats.StartCycle = c.sim.Now()
	c.stats.Instructions = 0
	c.stats.MemOps = 0
	// Keep the budget coherent: RunTo budgets are cumulative over the
	// epoch's instruction counter, which just reset.
	c.budget = 0
}

// StepFunctional advances the core by one memory access in functional
// fast-forward mode (sampled simulation): it draws the next access from the
// generator — advancing the generator state exactly as pump would — retires
// it instantly, and walks it through the functional MMU and cache paths so
// TLBs, page tables, cache tags, and controller state stay warm. The engine
// clock and the frontend clock are untouched; only the Instructions/MemOps
// counters advance (they are the fast-forward progress meter, and the next
// MarkEpoch resets them before any measurement). Returns the instructions
// consumed (the access plus its preceding non-memory gap).
func (c *Core) StepFunctional() uint64 {
	a := c.gen.Next()
	n := uint64(a.Gap) + 1
	c.stats.Instructions += n
	c.stats.MemOps++
	ppn := c.mmu.TranslateFunctional(a.VA)
	pa := ppn.Addr() + mem.Addr(mem.PageOffset(a.VA))
	c.l1.AccessFunctional(pa, a.Write, cache.Meta{Core: c.id, PID: c.pid})
	return n
}

// pump keeps the window full: it generates accesses and schedules their
// issue at the frontend clock until the window or the budget is exhausted.
func (c *Core) pump() {
	if c.pumping {
		return
	}
	c.pumping = true
	defer func() { c.pumping = false }()

	for !c.stats.Done && c.outstanding < MaxOutstanding {
		if c.stats.Instructions >= c.budget {
			if c.outstanding == 0 {
				c.finish()
			}
			return
		}
		a := c.gen.Next()
		c.stats.Instructions += uint64(a.Gap) + 1
		c.stats.MemOps++
		if c.frontTime < c.sim.Now() {
			c.frontTime = c.sim.Now()
		}
		c.frontTime += uint64(a.Gap)
		c.outstanding++
		t := c.getTxn()
		t.acc = a
		c.sim.At(c.frontTime, t.issueFn)
	}
}

func (c *Core) issue(t *memTxn) {
	var v *attrib.Vector
	if c.att != nil {
		t.v.Begin(c.sim.Now())
		v = &t.v
	}
	c.mmu.Translate(t.acc.VA, v, t.transFn)
}

func (c *Core) translated(t *memTxn, ppn mem.PPN) {
	pa := ppn.Addr() + mem.Addr(mem.PageOffset(t.acc.VA))
	meta := cache.Meta{Core: c.id, PID: c.pid}
	if c.att != nil {
		meta.V = &t.v
	}
	c.l1.Access(pa, t.acc.Write, meta, t.doneFn)
}

func (c *Core) accessDone(t *memTxn) {
	if c.att != nil {
		// Retire: fold the stamped intervals into the per-core CPI stack.
		c.att.Fold(c.id, &t.v, c.sim.Now())
	}
	c.putTxn(t)
	c.outstanding--
	if c.stats.Instructions >= c.budget && c.outstanding == 0 && !c.stats.Done {
		c.finish()
		return
	}
	c.pump()
}

func (c *Core) finish() {
	c.stats.Done = true
	c.stats.FinishCycle = c.sim.Now()
	if c.onDone != nil {
		c.onDone(c)
	}
}
