package core

import "pageseer/internal/mem"

// PCTEntry is the architectural content of one Page Correlation Table
// entry (Figure 6): the per-invocation LLC-miss count of a leader page and
// the identity and count of its most likely follower.
type PCTEntry struct {
	Count         uint32
	Follower      mem.PPN
	FollowerCount uint32
	HasFollower   bool
}

type successor struct {
	page  mem.PPN
	n     uint32
	valid bool
}

// filterEntry mirrors the Filter table entry of Figure 6: leader PPN and
// PID, the count accumulated during the current invocation, and two
// follower slots (the PCT's existing follower plus one new candidate).
type filterEntry struct {
	pid    int
	leader mem.PPN
	old    PCTEntry // snapshot brought in from the PCT
	count  uint32   // misses observed this invocation
	succ   [2]successor
	lru    uint64 // recency stamp; the LRU list keeps entries in lru order
	// older/newer link the Filter's LRU list.
	older, newer *filterEntry
}

// leadState is one pid's current invocation: the leader page, and the
// takeover candidate that debounces leadership changes
// (cfg.LeaderDebounce): a page must miss that many times, without the
// current leader reasserting itself in between, before it takes over.
type leadState struct {
	active  mem.PPN
	hasLead bool
	cand    mem.PPN
	candN   uint32
}

// CorrelatorStats counts correlation activity.
type CorrelatorStats struct {
	Invocations         uint64 // leader changes (new flurries)
	Writebacks          uint64 // filter entries folded back into the PCT
	EffectiveWritebacks uint64 // of those, ones that change swap decisions
	FollowerChanges     uint64
}

// Correlator implements the Page Correlation Table and its Filter front-end
// (Section III-C2). The full PCT lives architecturally in an array indexed
// by PPN, like the DRAM table it models (its DRAM timing is modelled by the
// PCTc MetaCache in the manager); the Filter tracks the currently-flurrying
// pages and folds fresh counts back into the PCT with history halving:
// new = current + old/2.
type Correlator struct {
	cfg Config
	// pct holds the entry of every page a run can name; a zero Count marks
	// a page with no PCT state (a written entry counts at least its
	// activating miss), and a page past the end panics with a
	// *mem.DomainError. pctN counts the pages with state.
	pct  []PCTEntry
	pctN int
	// filter indexes the Filter's entries by leader PPN (nil = not
	// filtered); filterN counts them.
	filter  []*filterEntry
	filterN int
	// oldest/newest are the ends of the Filter's LRU list, so eviction
	// finds its victim without scanning the table.
	oldest, newest *filterEntry
	leads          []leadState // indexed by pid, grown on demand
	tick           uint64
	stats          CorrelatorStats
	// fePool recycles filter entries: leader changes are per-flurry events
	// in steady state, so allocating an entry per invocation would charge
	// the demand path's allocation budget.
	fePool mem.Pool[filterEntry]
	// onWriteback lets the manager mark the PCTc entry dirty when the fold
	// effectively changes a swap decision (the change bit of Figure 6).
	onWriteback func(leader mem.PPN, effective bool)
}

// NewCorrelator builds an empty correlator over pages physical pages.
func NewCorrelator(cfg Config, pages uint64, onWriteback func(mem.PPN, bool)) *Correlator {
	if onWriteback == nil {
		onWriteback = func(mem.PPN, bool) {}
	}
	return &Correlator{
		cfg:         cfg,
		pct:         make([]PCTEntry, pages),
		filter:      make([]*filterEntry, pages),
		onWriteback: onWriteback,
	}
}

// lead returns pid's leader state. Pids are small dense integers
// (sim.Build numbers them 1..nCores), so a slice replaces a map.
func (c *Correlator) lead(pid int) *leadState {
	if pid >= len(c.leads) {
		c.leads = append(c.leads, make([]leadState, pid+1-len(c.leads))...)
	}
	return &c.leads[pid]
}

// Stats returns a snapshot of the counters.
func (c *Correlator) Stats() CorrelatorStats { return c.stats }

// Snapshot returns the freshest architectural view of page's PCT entry:
// history plus any invocation still accumulating in the Filter, else the
// PCT itself. Folding the live count in matters for the MMU-hint path:
// the hint fires *before* the demand miss that re-activates the entry and
// folds the previous invocation into history, so the raw in-Filter
// snapshot is one invocation stale there — a page's first re-walk would
// always look untrained and MMU-triggered swaps could never start.
func (c *Correlator) Snapshot(page mem.PPN) PCTEntry {
	mem.CheckFrame("core: PCT", uint64(page), uint64(len(c.pct)))
	if fe := c.filter[page]; fe != nil {
		e := fe.old
		if n := c.liveCount(page); n > e.Count {
			e.Count = n
		}
		return e
	}
	return c.pct[page]
}

// PCTSize returns the number of pages with PCT state (for footprint stats).
func (c *Correlator) PCTSize() int { return c.pctN }

// OnMiss records one data LLC miss by pid on page. It returns true when the
// miss starts a new invocation of page (the "first miss" that Section
// III-C2 uses as the prefetch-swap trigger point).
func (c *Correlator) OnMiss(pid int, page mem.PPN) (firstMiss bool) {
	mem.CheckFrame("core: PCT", uint64(page), uint64(len(c.pct)))
	l := c.lead(pid)
	if l.hasLead && l.active == page {
		// The leader reasserting itself dissolves any takeover candidate:
		// stragglers from the next flurry jumbled into this one by the
		// core's out-of-order window must not end the invocation.
		l.candN = 0
		fe := c.filter[page]
		if fe != nil && fe.count < c.cfg.CounterMax {
			fe.count++
		}
		return false
	}
	if l.hasLead && c.cfg.LeaderDebounce > 1 {
		if l.candN == 0 || l.cand != page {
			l.cand = page
			l.candN = 1
			return false
		}
		l.candN++
		if l.candN < c.cfg.LeaderDebounce {
			return false
		}
		l.candN = 0
	}

	// Leader change: page follows the previous leader.
	if l.hasLead {
		if prev := c.filter[l.active]; prev != nil && prev.pid == pid {
			c.observeSuccessor(prev, page)
		}
	}
	l.active = page
	l.hasLead = true
	c.stats.Invocations++

	fe := c.filter[page]
	if fe != nil {
		// Re-activation while still filtered: fold the previous invocation
		// into history and start a fresh count.
		fe.old = c.folded(fe)
		fe.count = 1
		c.touch(fe)
		return true
	}
	// Bring the PCT entry into the Filter (evicting LRU if full).
	if c.filterN >= c.cfg.FilterEntries {
		c.evictLRU()
	}
	if fe = c.fePool.Get(); fe == nil {
		fe = new(filterEntry)
	}
	*fe = filterEntry{pid: pid, leader: page, old: c.pct[page], count: 1}
	if fe.old.HasFollower {
		fe.succ[0] = successor{page: fe.old.Follower, valid: true}
	}
	c.filter[page] = fe
	c.filterN++
	c.touch(fe)
	return true
}

// observeSuccessor records that succ followed prev's flurry. Slot 0 holds
// the PCT's existing follower; slot 1 holds one new candidate, replaced
// CLOCK-style when repeatedly contradicted.
func (c *Correlator) observeSuccessor(prev *filterEntry, succ mem.PPN) {
	if c.cfg.NoCorr || succ == prev.leader {
		return
	}
	for i := range prev.succ {
		if prev.succ[i].valid && prev.succ[i].page == succ {
			if prev.succ[i].n < c.cfg.CounterMax {
				prev.succ[i].n++
			}
			return
		}
	}
	s := &prev.succ[1]
	if !s.valid {
		*s = successor{page: succ, n: 1, valid: true}
		return
	}
	if s.n > 0 {
		s.n--
		return
	}
	*s = successor{page: succ, n: 1, valid: true}
}

// touch stamps fe and moves it to the MRU end of the LRU list.
func (c *Correlator) touch(fe *filterEntry) {
	c.tick++
	fe.lru = c.tick
	if c.newest == fe {
		return
	}
	c.unlink(fe)
	fe.older = c.newest
	if c.newest != nil {
		c.newest.newer = fe
	} else {
		c.oldest = fe
	}
	c.newest = fe
}

// unlink takes fe out of the LRU list; an entry not yet on it is a no-op.
func (c *Correlator) unlink(fe *filterEntry) {
	if fe.older != nil {
		fe.older.newer = fe.newer
	} else if c.oldest == fe {
		c.oldest = fe.newer
	}
	if fe.newer != nil {
		fe.newer.older = fe.older
	} else if c.newest == fe {
		c.newest = fe.older
	}
	fe.older, fe.newer = nil, nil
}

// isLeader reports whether fe is its pid's current leader.
func (c *Correlator) isLeader(fe *filterEntry) bool {
	l := &c.leads[fe.pid]
	return l.hasLead && l.active == fe.leader
}

// evictLRU writes back the least recently used entry that is not a
// current leader, or the LRU entry itself when every entry leads. Each pid
// has at most one current leader, so the walk visits at most #pids+1
// entries.
func (c *Correlator) evictLRU() {
	victim := c.oldest
	for fe := c.oldest; fe != nil; fe = fe.newer {
		if !c.isLeader(fe) {
			victim = fe
			break
		}
	}
	if victim != nil {
		c.writeback(victim)
	}
}

// folded returns the entry produced by folding the filter state into the
// old snapshot: count = current + old/2, follower = best-observed successor.
func (c *Correlator) folded(fe *filterEntry) PCTEntry {
	e := PCTEntry{Count: fe.count + fe.old.Count/2}
	if e.Count > c.cfg.CounterMax {
		e.Count = c.cfg.CounterMax
	}
	if c.cfg.NoCorr {
		return e
	}
	best := -1
	for i, s := range fe.succ {
		if s.valid && (best == -1 || s.n > fe.succ[best].n) {
			best = i
		}
	}
	if best >= 0 {
		f := fe.succ[best].page
		e.Follower = f
		e.HasFollower = true
		// The follower's per-invocation miss count is the same quantity its
		// own leader entry tracks; read the freshest view (Section III-C2
		// keeps a separate counter — this model reads the follower's own
		// state, which carries the same value with less plumbing).
		e.FollowerCount = c.liveCount(f)
		if e.FollowerCount == 0 {
			e.FollowerCount = fe.succ[best].n
		}
	}
	return e
}

// liveCount estimates a page's per-invocation miss count including any
// in-progress invocation still accumulating in the Filter.
func (c *Correlator) liveCount(page mem.PPN) uint32 {
	if fe := c.filter[page]; fe != nil {
		n := fe.count + fe.old.Count/2
		if hist := fe.old.Count; hist > n {
			n = hist
		}
		if n > c.cfg.CounterMax {
			n = c.cfg.CounterMax
		}
		return n
	}
	return c.pct[page].Count
}

func (c *Correlator) writeback(fe *filterEntry) {
	newEntry := c.folded(fe)
	old := c.pct[fe.leader]
	effective := c.effectiveChange(old, newEntry)
	if newEntry.HasFollower && (!old.HasFollower || old.Follower != newEntry.Follower) {
		c.stats.FollowerChanges++
	}
	if old.Count == 0 {
		c.pctN++
	}
	c.pct[fe.leader] = newEntry
	c.filter[fe.leader] = nil
	c.filterN--
	c.unlink(fe)
	c.fePool.Put(fe)
	c.stats.Writebacks++
	if effective {
		c.stats.EffectiveWritebacks++
	}
	c.onWriteback(fe.leader, effective)
}

// effectiveChange implements the change bit: a writeback matters only if it
// flips a swap decision for any involved page (Section III-C2). Learning a
// sub-threshold follower, or count drift on the same side of the threshold,
// changes no swap action and is not effective.
func (c *Correlator) effectiveChange(old, new PCTEntry) bool {
	t := c.cfg.PCTThreshold
	if (old.Count >= t) != (new.Count >= t) {
		return true
	}
	oldF := old.HasFollower && old.FollowerCount >= t
	newF := new.HasFollower && new.FollowerCount >= t
	if oldF != newF {
		return true
	}
	return oldF && newF && old.Follower != new.Follower
}

// Flush writes every filter entry back to the PCT (end of simulation), least
// recently used first. Each writeback reads the entries still in the Filter
// (a follower's live count), so the order is part of the result.
func (c *Correlator) Flush() {
	for c.oldest != nil {
		c.writeback(c.oldest)
	}
	clear(c.leads)
}
