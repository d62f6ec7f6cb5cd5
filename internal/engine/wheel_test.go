package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// runScript replays a deterministic schedule on s and returns the fire
// order as (cycle, id) pairs. The script mixes external inserts with
// self-rescheduling events whose delays straddle the wheel horizon, so the
// trace exercises wheel hits, heap overflow, and migrations between the two.
func runScript(s *Sim, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var got []uint64
	id := uint64(0)
	// Delay palette biased to the simulator's real latencies, plus
	// boundary-straddling and far-future values.
	delays := []uint64{0, 1, 2, 8, 32, 360, 400,
		WheelHorizon - 1, WheelHorizon, WheelHorizon + 1, 5000}
	var spawn func(depth int)
	spawn = func(depth int) {
		myID := id
		id++
		got = append(got, s.Now()<<16|myID&0xffff)
		if depth <= 0 {
			return
		}
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			d := delays[rng.Intn(len(delays))]
			s.After(d, func() { spawn(depth - 1) })
		}
	}
	for i := 0; i < 30; i++ {
		c := uint64(rng.Intn(3000))
		s.At(c, func() { spawn(3) })
	}
	s.Drain(0)
	return got
}

// TestWheelVsHeapDifferential pins the wheel's fire order to the pure-heap
// reference: identical schedules must produce identical (cycle, seq) traces.
func TestWheelVsHeapDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		wheel := New()
		heap := New()
		heap.DisableWheel()
		a := runScript(wheel, seed)
		b := runScript(heap, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: wheel fired %d events, heap %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at event %d: wheel %#x, heap %#x", seed, i, a[i], b[i])
			}
		}
		if wheel.Fired() != heap.Fired() || wheel.Now() != heap.Now() {
			t.Fatalf("seed %d: Fired/Now diverge: wheel (%d,%d), heap (%d,%d)",
				seed, wheel.Fired(), wheel.Now(), heap.Fired(), heap.Now())
		}
	}
}

// FuzzWheelVsHeap widens the differential over fuzzer-chosen schedules.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		wheel := New()
		heap := New()
		heap.DisableWheel()
		a := runScript(wheel, seed)
		b := runScript(heap, seed)
		if len(a) != len(b) {
			t.Fatalf("wheel fired %d events, heap %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("traces diverge at event %d: wheel %#x, heap %#x", i, a[i], b[i])
			}
		}
	})
}

// TestDisableWheelPanicsWithPending pins that DisableWheel is a
// construction option: once an event is queued it refuses to switch modes.
func TestDisableWheelPanicsWithPending(t *testing.T) {
	s := New()
	s.At(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("DisableWheel with a pending event did not panic")
		}
	}()
	s.DisableWheel()
}

// TestHorizonBoundary pins the wheel/heap routing at the exact horizon:
// delay WheelHorizon-1 is the last wheel-eligible event, delay WheelHorizon
// the first heap event, and both fire in cycle order either way.
func TestHorizonBoundary(t *testing.T) {
	s := New()
	var got []uint64
	s.After(WheelHorizon-1, func() { got = append(got, s.Now()) })
	if s.wheelLen != 1 {
		t.Fatalf("delay horizon-1: wheelLen = %d, want 1", s.wheelLen)
	}
	s.After(WheelHorizon, func() { got = append(got, s.Now()) })
	if len(s.pq) != 1 {
		t.Fatalf("delay horizon: heap len = %d, want 1", len(s.pq))
	}
	s.Drain(0)
	if len(got) != 2 || got[0] != WheelHorizon-1 || got[1] != WheelHorizon {
		t.Fatalf("fired at %v, want [%d %d]", got, WheelHorizon-1, WheelHorizon)
	}
}

// TestSeqTieAcrossWheelAndHeap schedules two events for the same cycle where
// the first lands in the heap (scheduled from afar) and the second in the
// wheel (scheduled once the cycle came within the horizon). Insertion order
// must survive the structure split.
func TestSeqTieAcrossWheelAndHeap(t *testing.T) {
	const target = WheelHorizon + 500
	s := New()
	var got []int
	// Scheduled at distance > horizon: goes to the heap with seq 1.
	s.At(target, func() { got = append(got, 1) })
	// An intermediate event brings now within the horizon of target, then
	// schedules the second event for the same cycle: wheel, seq 3.
	s.At(600, func() {
		s.At(target, func() { got = append(got, 2) })
		if s.wheelLen != 1 {
			t.Errorf("second same-cycle event not on wheel (wheelLen = %d)", s.wheelLen)
		}
	})
	s.Drain(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("same-cycle events fired as %v, want [1 2] (insertion order)", got)
	}

	// Mirror case: wheel event first, then a same-cycle heap event cannot
	// exist (a later insert at the same cycle is also within the horizon),
	// but a later *wheel* insert after heap events elsewhere still ties on
	// seq with the heap at merge time; pin Step's merge comparison directly.
	s2 := New()
	got = nil
	s2.At(WheelHorizon+10, func() { got = append(got, 1) }) // heap
	s2.At(5, func() {                                       // wheel
		got = append(got, 0)
	})
	s2.Drain(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("merge order %v, want [0 1]", got)
	}
}

// TestAtCurrentCycle pins that scheduling at the current cycle is legal and
// fires after already-queued same-cycle events, and that one cycle earlier
// panics.
func TestAtCurrentCycle(t *testing.T) {
	s := New()
	var got []int
	s.At(10, func() {
		s.At(10, func() { got = append(got, 2) }) // now == cycle: legal
		got = append(got, 1)
	})
	s.At(10, func() { got = append(got, 3) }) // queued before, fires before the re-insert
	s.Drain(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("same-cycle order %v, want [1 3 2]", got)
	}

	s.At(s.Now(), func() {
		defer func() {
			if recover() == nil {
				t.Error("At(now-1) did not panic")
			}
		}()
		s.At(s.Now()-1, func() {})
	})
	s.Drain(0)
}

// TestDrainSplitAcrossWheelAndHeap pins that Drain terminates and fires
// everything when the queue holds wheel and heap events simultaneously,
// including heap events that migrate into firing range as the clock advances.
func TestDrainSplitAcrossWheelAndHeap(t *testing.T) {
	s := New()
	fired := 0
	for i := 0; i < 20; i++ {
		s.At(uint64(i*300), func() { fired++ }) // first few wheel, rest heap
	}
	if s.wheelLen == 0 || len(s.pq) == 0 {
		t.Fatalf("precondition: want events in both structures, got wheel %d heap %d", s.wheelLen, len(s.pq))
	}
	s.Drain(0)
	if fired != 20 {
		t.Fatalf("Drain fired %d of 20 events", fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain", s.Pending())
	}
}

// TestSetTickOnHorizonBoundary pins the cycle-tick hook when the tick period
// equals the wheel horizon: the sampler must fire exactly once per boundary
// even though the boundary-crossing event may come from either structure.
func TestSetTickOnHorizonBoundary(t *testing.T) {
	s := New()
	var ticks []uint64
	s.SetTick(WheelHorizon, func() { ticks = append(ticks, s.Now()) })
	// One event exactly on each of the first three horizon boundaries, plus
	// filler events between them.
	for i := uint64(1); i <= 3; i++ {
		s.At(i*WheelHorizon, func() {})
		s.At(i*WheelHorizon-3, func() {})
	}
	s.Drain(0)
	want := []uint64{WheelHorizon, 2 * WheelHorizon, 3 * WheelHorizon}
	if len(ticks) != len(want) {
		t.Fatalf("ticks at %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at cycle %d, want %d", i, ticks[i], want[i])
		}
	}
}

// TestWheelWrapAround drives the clock far enough that wheel slots are
// reused many times over, checking the slot-index arithmetic at uint64
// cycles well past several horizon wraps.
func TestWheelWrapAround(t *testing.T) {
	s := New()
	var fired []uint64
	var hop func()
	hop = func() {
		fired = append(fired, s.Now())
		if s.Now() < 10*WheelHorizon {
			s.After(WheelHorizon-1, hop) // always wheel, always wraps slots
		}
	}
	s.At(0, hop)
	s.Drain(0)
	for i := 1; i < len(fired); i++ {
		if fired[i] != fired[i-1]+WheelHorizon-1 {
			t.Fatalf("hop %d fired at %d, want %d", i, fired[i], fired[i-1]+WheelHorizon-1)
		}
	}
	if len(fired) < 10 {
		t.Fatalf("only %d hops", len(fired))
	}
}

// TestReserveKeepsBehavior pins that Reserve is purely a capacity hint:
// schedules run identically with and without it, and Reserve mid-run (with
// events already queued) loses nothing.
func TestReserveKeepsBehavior(t *testing.T) {
	f := func(seed int64) bool {
		plain := New()
		hinted := New()
		hinted.Reserve(4096)
		a := runScript(plain, seed)
		// Reserve again mid-flight via an event to cover the copy paths.
		hinted.At(0, func() { hinted.Reserve(8192) })
		b := runScript(hinted, seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPendingSerial pins the crashdump view of the queue: events
// spread across the wheel and the overflow heap come back as their cycles
// in fire order, max truncates, and the snapshot leaves the queue exactly
// as it was.
func TestSnapshotPendingSerial(t *testing.T) {
	s := New()
	var fired []uint64
	at := func(cycle uint64) {
		s.At(cycle, func() { fired = append(fired, s.Now()) })
	}
	// Two heap events scheduled from cycle 0, then a driver at cycle 600
	// whose wheel schedules wrap the slot ring and tie with a heap event,
	// so neither slot order nor heap layout is fire order.
	at(WheelHorizon + 50) // heap
	at(2 * WheelHorizon)  // heap
	s.At(600, func() {
		at(1500)
		at(WheelHorizon + 50) // ties with the first heap event
		at(610)
		at(1620) // slot below the slot of 610
	})
	s.RunUntil(600)
	if s.wheelLen != 4 || len(s.pq) != 2 {
		t.Fatalf("setup: wheel %d heap %d, want 4 and 2", s.wheelLen, len(s.pq))
	}
	want := []uint64{610, WheelHorizon + 50, WheelHorizon + 50, 1500, 1620, 2 * WheelHorizon}
	if got := s.SnapshotPending(100); !reflect.DeepEqual(got, want) {
		t.Fatalf("SnapshotPending = %v, want %v", got, want)
	}
	if got := s.SnapshotPending(2); !reflect.DeepEqual(got, want[:2]) {
		t.Fatalf("SnapshotPending(2) = %v, want %v", got, want[:2])
	}
	if got := s.SnapshotPending(0); got != nil {
		t.Fatalf("SnapshotPending(0) = %v, want nil", got)
	}
	if s.Pending() != len(want) || s.Fired() != 1 {
		t.Fatalf("snapshot disturbed the queue: Pending %d Fired %d", s.Pending(), s.Fired())
	}
	s.Drain(0)
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("drain fired at %v, snapshot promised %v", fired, want)
	}
}
