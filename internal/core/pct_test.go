package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pageseer/internal/mem"
)

// testCorrPages sizes the correlators under test: every PPN the tests touch
// is below it.
const testCorrPages = 1 << 10

func corrConfig() Config {
	c := DefaultConfig()
	c.FilterEntries = 8
	c.LeaderDebounce = 1 // pin the raw single-leader semantics
	return c
}

func TestFirstMissDetection(t *testing.T) {
	c := NewCorrelator(corrConfig(), testCorrPages, nil)
	if !c.OnMiss(1, 100) {
		t.Fatal("first miss not detected")
	}
	for i := 0; i < 5; i++ {
		if c.OnMiss(1, 100) {
			t.Fatal("repeat miss flagged as first")
		}
	}
	if !c.OnMiss(1, 200) {
		t.Fatal("leader change not flagged as first miss")
	}
}

// TestLeaderDebounceAbsorbsJumble: with the default LeaderDebounce of 2,
// straggler misses from the next flurry interleaved into the current one by
// an out-of-order core must neither end the invocation nor gut its count —
// while a genuine handover (two candidate misses with no leader reassertion
// in between) still switches promptly.
func TestLeaderDebounceAbsorbsJumble(t *testing.T) {
	cfg := corrConfig()
	cfg.LeaderDebounce = 2
	c := NewCorrelator(cfg, testCorrPages, nil)
	// 100's flurry with 200-stragglers jumbled in: ...100,200,100,200,100...
	for i := 0; i < 16; i++ {
		if c.OnMiss(1, 100) && i > 0 {
			t.Fatal("jumbled leader saw a spurious new invocation")
		}
		if c.OnMiss(1, 200) {
			t.Fatal("single straggler ended the invocation")
		}
	}
	// The interleaved stragglers never produced two 200-misses in a row, so
	// 100's invocation kept counting all 16 of its misses.
	if got := c.Snapshot(100).Count; got != 16 {
		t.Fatalf("jumbled invocation count = %d, want 16", got)
	}
	// One more leader miss dissolves the trailing straggler's candidacy...
	if c.OnMiss(1, 100) {
		t.Fatal("leader reassertion flagged as new invocation")
	}
	// ...then a genuine handover: two consecutive 200 misses switch.
	if c.OnMiss(1, 200) {
		t.Fatal("first handover miss switched immediately despite debounce")
	}
	if !c.OnMiss(1, 200) {
		t.Fatal("second consecutive candidate miss did not switch leadership")
	}
}

func TestCountFoldingWithHalving(t *testing.T) {
	c := NewCorrelator(corrConfig(), testCorrPages, nil)
	// Invocation 1: 20 misses on page 100.
	for i := 0; i < 20; i++ {
		c.OnMiss(1, 100)
	}
	c.OnMiss(1, 200) // end the flurry
	// Re-activate 100: the filter folds 20 + 0/2 = 20 into history.
	c.OnMiss(1, 100)
	if got := c.Snapshot(100).Count; got != 20 {
		t.Fatalf("after first fold Count = %d, want 20", got)
	}
	// Invocation 2: 10 more misses (total count 11 incl. the reactivating
	// one), then fold: 11 + 20/2 = 21.
	for i := 0; i < 10; i++ {
		c.OnMiss(1, 100)
	}
	c.OnMiss(1, 200)
	c.OnMiss(1, 100)
	if got := c.Snapshot(100).Count; got != 21 {
		t.Fatalf("after second fold Count = %d, want 21", got)
	}
}

func TestFollowerLearning(t *testing.T) {
	c := NewCorrelator(corrConfig(), testCorrPages, nil)
	// Pattern: 100 (flurry) then 200 (flurry), repeated.
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			c.OnMiss(1, 100)
		}
		for i := 0; i < 16; i++ {
			c.OnMiss(1, 200)
		}
	}
	c.Flush()
	e := c.Snapshot(100)
	if !e.HasFollower || e.Follower != 200 {
		t.Fatalf("follower of 100 = %+v, want 200", e)
	}
	if e.FollowerCount == 0 {
		t.Fatal("follower count not learned")
	}
}

func TestFollowerChangesAdaptively(t *testing.T) {
	c := NewCorrelator(corrConfig(), testCorrPages, nil)
	run := func(follower mem.PPN, rounds int) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < 16; i++ {
				c.OnMiss(1, 100)
			}
			for i := 0; i < 16; i++ {
				c.OnMiss(1, follower)
			}
		}
	}
	run(200, 3)
	c.Flush()
	// The pattern changes: 100 is now followed by 300, persistently.
	run(300, 6)
	c.Flush()
	if e := c.Snapshot(100); !e.HasFollower || e.Follower != 300 {
		t.Fatalf("follower did not adapt: %+v", e)
	}
}

func TestPIDSeparation(t *testing.T) {
	c := NewCorrelator(corrConfig(), testCorrPages, nil)
	// Interleaved misses from two processes must not create cross-process
	// follower links.
	for r := 0; r < 4; r++ {
		for i := 0; i < 16; i++ {
			c.OnMiss(1, 100)
			c.OnMiss(2, 900)
		}
		for i := 0; i < 16; i++ {
			c.OnMiss(1, 200)
			c.OnMiss(2, 800)
		}
	}
	c.Flush()
	if e := c.Snapshot(100); e.HasFollower && e.Follower == 900 {
		t.Fatal("correlated pages across PIDs")
	}
	if e := c.Snapshot(100); !e.HasFollower || e.Follower != 200 {
		t.Fatalf("per-PID follower lost: %+v", e)
	}
}

func TestNoCorrDisablesFollowers(t *testing.T) {
	cfg := corrConfig()
	cfg.NoCorr = true
	c := NewCorrelator(cfg, testCorrPages, nil)
	for r := 0; r < 4; r++ {
		for i := 0; i < 16; i++ {
			c.OnMiss(1, 100)
		}
		for i := 0; i < 16; i++ {
			c.OnMiss(1, 200)
		}
	}
	c.Flush()
	if e := c.Snapshot(100); e.HasFollower {
		t.Fatalf("NoCorr still learned a follower: %+v", e)
	}
	if c.Snapshot(100).Count == 0 {
		t.Fatal("NoCorr lost leader counting")
	}
}

func TestEffectiveChangeBit(t *testing.T) {
	var calls []bool
	cfg := corrConfig()
	c := NewCorrelator(cfg, testCorrPages, func(_ mem.PPN, eff bool) { calls = append(calls, eff) })
	// A tiny flurry (below threshold, no follower): writeback should be
	// ineffective — no swap decision changes.
	c.OnMiss(1, 100)
	c.OnMiss(1, 200)
	c.Flush()
	for _, eff := range calls {
		if eff {
			t.Fatal("sub-threshold writeback marked effective")
		}
	}
	calls = nil
	// A long flurry crosses the threshold: effective.
	c2 := NewCorrelator(cfg, testCorrPages, func(_ mem.PPN, eff bool) { calls = append(calls, eff) })
	for i := 0; i < 20; i++ {
		c2.OnMiss(1, 100)
	}
	c2.Flush()
	if len(calls) != 1 || !calls[0] {
		t.Fatalf("threshold-crossing writeback not effective: %v", calls)
	}
}

func TestFilterEviction(t *testing.T) {
	cfg := corrConfig()
	cfg.FilterEntries = 4
	c := NewCorrelator(cfg, testCorrPages, nil)
	// Touch more leaders than the filter holds; old ones must be written
	// back to the PCT, preserving their counts.
	for p := mem.PPN(0); p < 8; p++ {
		for i := 0; i < 16; i++ {
			c.OnMiss(1, p)
		}
	}
	if n := filterLen(c); n > 4 || n != c.filterN {
		t.Fatalf("filter holds %d entries (count %d), cap 4", n, c.filterN)
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("no writebacks despite eviction pressure")
	}
	if got := c.Snapshot(0).Count; got != 16 {
		t.Fatalf("evicted leader count = %d, want 16", got)
	}
}

// Property: the correlator never loses leader counts — after a flush, each
// page's PCT count equals the folded sequence computed by a reference model.
func TestFoldingMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := corrConfig()
		cfg.FilterEntries = 64 // large enough to avoid mid-run evictions
		c := NewCorrelator(cfg, testCorrPages, nil)
		ref := map[mem.PPN]uint32{} // folded history per page
		cur := map[mem.PPN]uint32{} // current invocation counts
		var leader mem.PPN
		hasLeader := false
		fold := func(p mem.PPN) {
			n := cur[p] + ref[p]/2
			if n > cfg.CounterMax {
				n = cfg.CounterMax
			}
			ref[p] = n
			cur[p] = 0
		}
		for op := 0; op < 400; op++ {
			p := mem.PPN(rng.Intn(6))
			if hasLeader && p != leader {
				// new invocation of p begins
				if _, inFlight := cur[p]; inFlight && cur[p] > 0 {
					fold(p)
				}
			}
			if !hasLeader || p != leader {
				if cur[p] > 0 {
					// handled above
				}
				leader, hasLeader = p, true
			}
			if cur[p] < cfg.CounterMax {
				cur[p]++
			}
			c.OnMiss(1, p)
		}
		for p := range cur {
			if cur[p] > 0 {
				fold(p)
			}
		}
		c.Flush()
		for p, want := range ref {
			if got := c.Snapshot(p).Count; got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushIsDeterministic: each writeback reads the entries still in the
// Filter (a follower's live count), so Flush's order is part of its result.
// Refill an identical Filter many times; every flush must leave the same
// PCT, the same stats and the same writeback sequence.
func TestFlushIsDeterministic(t *testing.T) {
	cfg := corrConfig()
	cfg.FilterEntries = 64
	fill := func() (*Correlator, *[]mem.PPN) {
		var order []mem.PPN
		c := NewCorrelator(cfg, testCorrPages, func(p mem.PPN, _ bool) { order = append(order, p) })
		// History: a chain of long flurries, each page followed by the next.
		for p := mem.PPN(0); p < 32; p++ {
			for i := 0; i < 12; i++ {
				c.OnMiss(1, p)
			}
		}
		c.Flush()
		// One-miss invocations of the same chain: a filtered follower's live
		// count (its history) differs from its folded, written-back count.
		for p := mem.PPN(0); p < 32; p++ {
			c.OnMiss(1, p)
		}
		return c, &order
	}
	c0, order0 := fill()
	c0.Flush()
	for trial := 0; trial < 50; trial++ {
		c, order := fill()
		c.Flush()
		if !reflect.DeepEqual(c.pct, c0.pct) || c.Stats() != c0.Stats() || !reflect.DeepEqual(*order, *order0) {
			t.Fatalf("trial %d: flush left a different PCT, stats or writeback order", trial)
		}
	}
}

// filterLen counts the Filter's entries by scanning the dense index.
func filterLen(c *Correlator) int {
	n := 0
	for _, fe := range c.filter {
		if fe != nil {
			n++
		}
	}
	return n
}

// evictScanReference is the Filter's eviction rule written as a scan over
// the whole table, the reference the LRU-list walk must match: the least
// recently used entry that is not its pid's current leader, or the least
// recently used entry when every entry leads.
func evictScanReference(c *Correlator) *filterEntry {
	leads := func(fe *filterEntry) bool {
		l := c.leads[fe.pid]
		return l.hasLead && l.active == fe.leader
	}
	var victim *filterEntry
	for _, fe := range c.filter {
		if fe == nil {
			continue
		}
		if victim == nil {
			victim = fe
			continue
		}
		switch feLeads, victimLeads := leads(fe), leads(victim); {
		case victimLeads && !feLeads:
			victim = fe
		case victimLeads == feLeads && fe.lru < victim.lru:
			victim = fe
		}
	}
	return victim
}

// scanCorrelator drives a Correlator whose Filter never fills on its own
// and replays, with evictScanReference, the eviction each insertion past
// capacity would have made. The replay runs where OnMiss evicts: after the
// leader change, with the new entry hidden from the Filter, so the
// victim's fold sees the same table.
type scanCorrelator struct {
	*Correlator
	capacity  int
	fallbacks int // evictions that found every entry leading
}

func newScanCorrelator(cfg Config, onWriteback func(mem.PPN, bool)) *scanCorrelator {
	capacity := cfg.FilterEntries
	cfg.FilterEntries = 1 << 30
	return &scanCorrelator{Correlator: NewCorrelator(cfg, testCorrPages, onWriteback), capacity: capacity}
}

func (s *scanCorrelator) OnMiss(pid int, page mem.PPN) bool {
	first := s.Correlator.OnMiss(pid, page)
	if s.filterN != filterLen(s.Correlator) {
		panic("Filter count disagrees with its index")
	}
	if s.filterN > s.capacity {
		fe := s.filter[page]
		s.filter[page] = nil
		s.filterN--
		victim := evictScanReference(s.Correlator)
		if l := s.leads[victim.pid]; l.hasLead && l.active == victim.leader {
			s.fallbacks++
		}
		s.writeback(victim)
		s.filter[page] = fe
		s.filterN++
	}
	return first
}

type writebackRec struct {
	leader    mem.PPN
	effective bool
}

// TestEvictionMatchesScanReference: the LRU-list eviction picks exactly
// the victim the full-table scan picks, skipping current leaders, so the
// writeback sequence, the PCT and the stats match the scan's on random
// multi-pid miss streams. The six-pid cases over a Filter of five or fewer
// entries reach the fallback where every entry leads.
func TestEvictionMatchesScanReference(t *testing.T) {
	fallbacks := 0
	for pids := 1; pids <= 6; pids++ {
		for entries := 2; entries <= 8; entries++ {
			for _, debounce := range []uint32{1, 2} {
				cfg := DefaultConfig()
				cfg.FilterEntries = entries
				cfg.LeaderDebounce = debounce
				var got, want []writebackRec
				c := NewCorrelator(cfg, testCorrPages, func(p mem.PPN, eff bool) { got = append(got, writebackRec{p, eff}) })
				ref := newScanCorrelator(cfg, func(p mem.PPN, eff bool) { want = append(want, writebackRec{p, eff}) })
				rng := rand.New(rand.NewSource(int64(pids*100 + entries*10 + int(debounce))))
				last := make([]mem.PPN, pids+1)
				universe := 2*entries + pids
				for op := 0; op < 3000; op++ {
					pid := 1 + rng.Intn(pids)
					if rng.Intn(2) == 0 {
						last[pid] = mem.PPN(rng.Intn(universe))
					}
					if c.OnMiss(pid, last[pid]) != ref.OnMiss(pid, last[pid]) {
						t.Fatalf("pids=%d entries=%d debounce=%d op %d: first-miss verdicts differ", pids, entries, debounce, op)
					}
					if len(got) != len(want) {
						t.Fatalf("pids=%d entries=%d debounce=%d op %d: %d writebacks, reference %d", pids, entries, debounce, op, len(got), len(want))
					}
				}
				c.Flush()
				ref.Flush()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pids=%d entries=%d debounce=%d: writeback order differs from the scan reference", pids, entries, debounce)
				}
				if !reflect.DeepEqual(c.pct, ref.pct) || c.Stats() != ref.Stats() {
					t.Fatalf("pids=%d entries=%d debounce=%d: PCT or stats differ from the scan reference", pids, entries, debounce)
				}
				written := 0
				for _, e := range c.pct {
					if e != (PCTEntry{}) {
						written++
					}
				}
				if c.PCTSize() != written {
					t.Fatalf("pids=%d entries=%d debounce=%d: PCTSize = %d, %d entries written", pids, entries, debounce, c.PCTSize(), written)
				}
				if pids > entries {
					fallbacks += ref.fallbacks
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no eviction found every Filter entry leading; the fallback went untested")
	}
}
