package memsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs/attrib"
)

// refModule is the scheduler before the class-split queues: one
// enqueue-ordered queue per channel, rescanned on every commit, with each
// entry's address decoded by division. locate, feasible and pick are the
// old code verbatim; the rest is the least that drives them (no record
// pool, no blame vectors). TestSchedulerMatchesReference holds Module to it.
type refModule struct {
	sim  *engine.Sim
	cfg  Config
	base mem.Addr
	size uint64

	chans []refChannel
	stats Stats

	tCAS, tRCD, tRAS, tRP, tWR, burst uint64
	linesPerRow                       uint64
	banksPerChannel                   int
}

type refChannel struct {
	banks   []bank
	busFree uint64
	queue   []*request
	wakeAt  uint64
	commits uint64
	wakeFn  func()
}

func newRef(sim *engine.Sim, cfg Config, base mem.Addr, size uint64) *refModule {
	m := &refModule{
		sim:             sim,
		cfg:             cfg,
		base:            base,
		size:            size,
		tCAS:            cfg.Timing.TCAS * cfg.ClockRatio,
		tRCD:            cfg.Timing.TRCD * cfg.ClockRatio,
		tRAS:            cfg.Timing.TRAS * cfg.ClockRatio,
		tRP:             cfg.Timing.TRP * cfg.ClockRatio,
		tWR:             cfg.Timing.TWR * cfg.ClockRatio,
		burst:           cfg.BurstMemCycles * cfg.ClockRatio,
		linesPerRow:     cfg.RowBytes / mem.LineSize,
		banksPerChannel: cfg.BanksPerRank * cfg.RanksPerChannel,
	}
	m.chans = make([]refChannel, cfg.Channels)
	for i := range m.chans {
		ch := i
		m.chans[i].banks = make([]bank, m.banksPerChannel)
		for b := range m.chans[i].banks {
			m.chans[i].banks[b].openRow = -1
		}
		m.chans[i].wakeFn = func() {
			m.chans[ch].wakeAt = 0
			m.trySchedule(ch)
		}
	}
	return m
}

func (m *refModule) Contains(addr mem.Addr) bool {
	return addr >= m.base && uint64(addr-m.base) < m.size
}

func (m *refModule) locate(addr mem.Addr) (ch, bk int, row int64) {
	if !m.Contains(addr) {
		panic(fmt.Sprintf("memsim(%s): address %#x outside module", m.cfg.Name, uint64(addr)))
	}
	line := uint64(addr-m.base) >> mem.LineShift
	ch = int(line % uint64(m.cfg.Channels))
	rest := line / uint64(m.cfg.Channels)
	rowLocal := rest / m.linesPerRow
	bk = int(rowLocal % uint64(m.banksPerChannel))
	row = int64(rowLocal / uint64(m.banksPerChannel))
	return ch, bk, row
}

func (m *refModule) feasible(c *refChannel, r *request, now uint64) uint64 {
	_, bkIdx, row := m.locate(r.addr)
	bk := &c.banks[bkIdx]
	var path uint64
	switch {
	case bk.openRow == row:
		path = now + m.tCAS
	case bk.openRow == -1:
		path = now + m.tRCD + m.tCAS
	default:
		pre := now
		if bk.earliestPre > pre {
			pre = bk.earliestPre
		}
		path = pre + m.tRP + m.tRCD + m.tCAS
	}
	if bk.nextReady > path {
		path = bk.nextReady
	}
	if c.busFree > path {
		path = c.busFree
	}
	return path
}

func (m *refModule) pick(c *refChannel, now uint64) (idx int, start uint64) {
	classless := m.cfg.ClasslessEvery != 0 && c.commits%m.cfg.ClasslessEvery == m.cfg.ClasslessEvery-1
	oldest := -1
	for i, r := range c.queue {
		if oldest == -1 || r.arrival < c.queue[oldest].arrival {
			oldest = i
		}
	}
	if c.queue[oldest].bypass >= m.cfg.MaxBypass {
		bound := now + m.tRP + m.tRCD + m.tCAS + 2*m.burst
		if c.busFree > now {
			bound += c.busFree - now
		}
		if s := m.feasible(c, c.queue[oldest], now); s <= bound {
			return oldest, s
		}
	}
	best := -1
	var bestStart uint64
	var bestPrio int
	for i, r := range c.queue {
		s := m.feasible(c, r, now)
		prio := 0
		if r.prio == PrioSwap {
			prio = 2
			if m.cfg.SwapAgeLimit != 0 && now-r.arrival > m.cfg.SwapAgeLimit {
				prio = 1
			}
		}
		if classless {
			prio = -prio
		}
		if best == -1 || prio < bestPrio ||
			(prio == bestPrio && (s < bestStart ||
				(s == bestStart && r.arrival < c.queue[best].arrival))) {
			best, bestStart, bestPrio = i, s, prio
		}
	}
	if best != oldest {
		c.queue[oldest].bypass++
	}
	return best, bestStart
}

func (m *refModule) trySchedule(ch int) {
	c := &m.chans[ch]
	if len(c.queue) == 0 {
		return
	}
	now := m.sim.Now()
	if c.busFree > now+m.tCAS {
		m.armWake(c, ch, c.busFree-m.tCAS)
		return
	}
	i, start := m.pick(c, now)
	r := c.queue[i]
	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	c.commits++
	m.issue(ch, r, start)
	if len(c.queue) > 0 {
		m.armWake(c, ch, c.busFree)
	}
}

func (m *refModule) armWake(c *refChannel, ch int, at uint64) {
	if c.wakeAt != 0 && at >= c.wakeAt {
		return
	}
	c.wakeAt = at
	m.sim.At(at, c.wakeFn)
}

func (m *refModule) issue(ch int, r *request, dataStart uint64) {
	c := &m.chans[ch]
	_, bkIdx, row := m.locate(r.addr)
	bk := &c.banks[bkIdx]
	switch {
	case bk.openRow == row:
		bk.rowHits++
	case bk.openRow == -1:
		bk.rowMisses++
		bk.earliestPre = dataStart - m.tCAS + m.tRAS
	default:
		bk.rowConflicts++
		bk.earliestPre = dataStart - m.tCAS + m.tRAS
	}
	dataEnd := dataStart + m.burst
	c.busFree = dataEnd
	m.stats.BusBusy += m.burst
	bk.openRow = row
	bk.nextReady = dataStart
	if r.write {
		if end := dataEnd + m.tWR; end > bk.earliestPre {
			bk.earliestPre = end
		}
	}
	m.stats.TotalWait += dataEnd - r.arrival
	m.sim.At(dataEnd, r.done)
}

func (m *refModule) Access(addr mem.Addr, write bool, prio Priority, _ *attrib.Vector, done func()) {
	ch, _, _ := m.locate(mem.LineOf(addr))
	c := &m.chans[ch]
	c.queue = append(c.queue, &request{addr: mem.LineOf(addr), write: write, prio: prio, arrival: m.sim.Now(), done: done})
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	m.trySchedule(ch)
}

func (m *refModule) Promote(addr mem.Addr) {
	line := mem.LineOf(addr)
	ch, _, _ := m.locate(line)
	for _, r := range m.chans[ch].queue {
		if r.addr == line {
			r.prio = PrioDemand
		}
	}
}

func (m *refModule) Stats() Stats {
	s := m.stats
	for i := range m.chans {
		for b := range m.chans[i].banks {
			bk := &m.chans[i].banks[b]
			s.RowHits += bk.rowHits
			s.RowMisses += bk.rowMisses
			s.RowConflicts += bk.rowConflicts
		}
	}
	return s
}

func (m *refModule) QueueOccupancy() int {
	n := 0
	for i := range m.chans {
		n += len(m.chans[i].queue)
	}
	return n
}

type scheduler interface {
	Access(addr mem.Addr, write bool, prio Priority, v *attrib.Vector, done func())
	Promote(addr mem.Addr)
	Stats() Stats
	QueueOccupancy() int
}

// completion is one finished request: its line, its data-burst start
// (completion minus one burst) and its completion cycle.
type completion struct {
	addr        mem.Addr
	start, done uint64
}

type schedOp struct {
	at      uint64
	addr    mem.Addr
	write   bool
	prio    Priority
	promote bool
	chain   bool // on completion, re-read the line at demand priority
}

// genOps draws a seeded stream over a few banks and rows of each channel,
// so requests collide on banks and rows, in alternating heavy and light
// phases so queues grow deep and drain.
func genOps(rng *rand.Rand, cfg Config, n int) []schedOp {
	lines := cfg.RowBytes / mem.LineSize
	banks := uint64(cfg.BanksPerRank * cfg.RanksPerChannel)
	addrOf := func() mem.Addr {
		ch := uint64(rng.Intn(cfg.Channels))
		bk := uint64(rng.Intn(int(min(banks, 4))))
		row := uint64(rng.Intn(4))
		if rng.Intn(8) == 0 {
			row = uint64(rng.Intn(64))
		}
		col := uint64(rng.Intn(int(lines)))
		return mem.Addr((((row*banks+bk)*lines+col)*uint64(cfg.Channels) + ch) * mem.LineSize)
	}
	var ops []schedOp
	var swaps []mem.Addr
	at := uint64(0)
	for i := 0; i < n; i++ {
		if (i/200)%2 == 0 {
			at += uint64(rng.Intn(3))
		} else {
			at += uint64(rng.Intn(40))
		}
		if len(swaps) > 0 && rng.Intn(20) == 0 {
			ops = append(ops, schedOp{at: at, addr: swaps[rng.Intn(len(swaps))], promote: true})
			continue
		}
		op := schedOp{at: at, addr: addrOf(), write: rng.Intn(3) == 0, chain: rng.Intn(10) == 0}
		if rng.Intn(2) == 0 {
			op.prio = PrioSwap
			if swaps = append(swaps, op.addr); len(swaps) > 16 {
				swaps = swaps[1:]
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// replay drives s with ops on its own engine and returns the completion log
// and the deepest queue seen when an op arrived.
func replay(sim *engine.Sim, s scheduler, burst uint64, ops []schedOp) ([]completion, int) {
	var log []completion
	var access func(addr mem.Addr, write bool, prio Priority, chain bool)
	access = func(addr mem.Addr, write bool, prio Priority, chain bool) {
		s.Access(addr, write, prio, nil, func() {
			now := sim.Now()
			log = append(log, completion{addr, now - burst, now})
			if chain {
				access(addr, false, PrioDemand, false)
			}
		})

	}
	peak := 0
	for _, op := range ops {
		sim.RunUntil(op.at)
		peak = max(peak, s.QueueOccupancy())
		if op.promote {
			s.Promote(op.addr)
		} else {
			access(op.addr, op.write, op.prio, op.chain)
		}
	}
	sim.Drain(0)
	return log, peak
}

func TestSchedulerMatchesReference(t *testing.T) {
	oneBank := func(c Config) Config {
		c.Channels, c.RanksPerChannel, c.BanksPerRank = 1, 1, 1
		return c
	}
	geometries := []struct {
		name string
		cfg  Config
	}{
		{"DRAM", DRAMConfig()},
		{"NVM", NVMConfig()},
		{"DRAM-1ch1bank", oneBank(DRAMConfig())},
		{"NVM-1ch1bank", oneBank(NVMConfig())},
	}
	knobs := []struct {
		maxBypass        int
		age, classlessEv uint64
	}{
		{3, 400, 6}, // Table I
		{0, 0, 0},   // every pick tries to force the oldest; no aging, no reserved slots
		{1, 60, 3},  // aggressive aging and class inversion
	}
	const size = 64 << 20
	for _, g := range geometries {
		for _, k := range knobs {
			cfg := g.cfg
			cfg.MaxBypass, cfg.SwapAgeLimit, cfg.ClasslessEvery = k.maxBypass, k.age, k.classlessEv
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/bypass%d-age%d-classless%d/seed%d", g.name, k.maxBypass, k.age, k.classlessEv, seed), func(t *testing.T) {
					ops := genOps(rand.New(rand.NewSource(seed)), cfg, 2000)
					refSim, liveSim := engine.New(), engine.New()
					ref := newRef(refSim, cfg, 0, size)
					live := New(liveSim, cfg, 0, size)
					want, wantPeak := replay(refSim, ref, ref.burst, ops)
					got, gotPeak := replay(liveSim, live, live.burst, ops)
					if len(got) != len(want) {
						t.Fatalf("%d completions, reference %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("completion %d = %+v, reference %+v", i, got[i], want[i])
						}
					}
					if gs, ws := live.Stats(), ref.Stats(); !reflect.DeepEqual(gs, ws) {
						t.Fatalf("Stats = %+v, reference %+v", gs, ws)
					}
					if gotPeak != wantPeak || gotPeak < 32 {
						t.Fatalf("peak queue %d, reference %d (want both equal and >= 32)", gotPeak, wantPeak)
					}
					if live.QueueOccupancy() != 0 || live.reqPool.Live() != 0 {
						t.Fatalf("not quiesced: %d queued, %d live records", live.QueueOccupancy(), live.reqPool.Live())
					}
				})
			}
		}
	}
}

func TestNonPowerOfTwoGeometryPanics(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"channels": func(c *Config) { c.Channels = 3 },
		"banks":    func(c *Config) { c.BanksPerRank = 6 },
		"ranks":    func(c *Config) { c.RanksPerChannel = 3 },
		"row":      func(c *Config) { c.RowBytes = 3000 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := NVMConfig()
			mut(&cfg)
			defer func() {
				if recover() == nil {
					t.Error("non-power-of-two geometry did not panic")
				}
			}()
			New(engine.New(), cfg, 0, 64<<20)
		})
	}
}
