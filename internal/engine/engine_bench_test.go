package engine

import (
	"container/heap"
	"math/rand"
	"testing"
)

// BenchmarkSchedulePop covers the two cycle distributions the simulator
// actually produces: uniform cycles (bank/bus events spread across time)
// and clustered cycles (flurries of events at nearly the same cycle, where
// tie-breaking by seq dominates).

// boxedQueue is the container/heap implementation the value-typed 4-ary
// heap replaced, kept as the fire-order reference for
// TestHeapMatchesBoxedReference.
type boxedQueue []event

func (h boxedQueue) Len() int { return len(h) }
func (h boxedQueue) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h boxedQueue) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedQueue) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *boxedQueue) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// cycleDist generates deterministic cycle sequences for the benches.
func cycleDist(n int, clustered bool) []uint64 {
	rng := rand.New(rand.NewSource(42))
	cycles := make([]uint64, n)
	for i := range cycles {
		if clustered {
			// Tight clusters: many ties, ordering falls to seq.
			cycles[i] = uint64(i/64) * 1000
		} else {
			cycles[i] = uint64(rng.Intn(1 << 20))
		}
	}
	return cycles
}

const benchEvents = 4096

func benchSchedulePop(b *testing.B, clustered bool) {
	cycles := cycleDist(benchEvents, clustered)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, c := range cycles {
			s.At(c, fn)
		}
		for s.Step() {
		}
	}
}

func BenchmarkSchedulePopUniform(b *testing.B)   { benchSchedulePop(b, false) }
func BenchmarkSchedulePopClustered(b *testing.B) { benchSchedulePop(b, true) }

// benchWheelVsHeap drives a population of self-rescheduling events whose
// delays are the simulator's actual hot-path latencies (cache tags, DRAM
// row activates, NVM writes), all inside the wheel horizon — the
// steady-state shape of a running simulation. The Wheel/Heap pair isolates
// the wheel's O(1) insert/extract against the 4-ary heap's O(log n) sift on
// an identical schedule.
func benchWheelVsHeap(b *testing.B, wheel bool) {
	delays := []uint64{2, 8, 32, 116, 360}
	const population = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New()
		if !wheel {
			s.DisableWheel()
		}
		s.Reserve(WheelHorizon * 4) // as sim.Build does: no append-growth mid-run
		fired := 0
		hops := make([]func(), population)
		for j := 0; j < population; j++ {
			d := delays[j%len(delays)]
			j := j
			hops[j] = func() {
				fired++
				if fired < benchEvents {
					s.After(d, hops[j])
				}
			}
		}
		for j, h := range hops {
			s.At(uint64(j), h)
		}
		b.StartTimer()
		s.Drain(0)
	}
}

func BenchmarkWheelVsHeapWheel(b *testing.B) { benchWheelVsHeap(b, true) }
func BenchmarkWheelVsHeapHeap(b *testing.B)  { benchWheelVsHeap(b, false) }

// TestHeapMatchesBoxedReference fires the same randomized schedule through
// the 4-ary value heap and the old container/heap implementation and
// asserts an identical (cycle, seq) fire order — the determinism contract
// the rewrite must preserve exactly.
func TestHeapMatchesBoxedReference(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(500) + 1
		cycles := make([]uint64, n)
		for i := range cycles {
			cycles[i] = uint64(rng.Intn(40)) // dense: lots of ties
		}

		type fired struct{ cycle, seq uint64 }
		var got []fired
		s := New()
		for i, c := range cycles {
			seq := uint64(i + 1)
			c := c
			s.At(c, func() { got = append(got, fired{c, seq}) })
		}
		s.Drain(0)

		var want []fired
		var pq boxedQueue
		heap.Init(&pq)
		for i, c := range cycles {
			heap.Push(&pq, event{cycle: c, seq: uint64(i + 1), fn: nil})
		}
		for pq.Len() > 0 {
			e := heap.Pop(&pq).(event)
			want = append(want, fired{e.cycle, e.seq})
		}

		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire order diverges at %d: got %+v, reference %+v",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestPopReleasesClosure asserts the satellite fix: after Pop, the vacated
// backing-array slot no longer pins the popped closure — on the heap path
// (forced via DisableWheel) and on the wheel path alike.
func TestPopReleasesClosure(t *testing.T) {
	s := New()
	s.DisableWheel()
	s.At(1, func() {})
	s.At(2, func() {})
	s.Step()
	// One event remains at index 0; the vacated slot must be zeroed.
	tail := s.pq[:2][1]
	if tail.fn != nil || tail.cycle != 0 || tail.seq != 0 {
		t.Fatalf("vacated heap slot still holds %+v; closure not released", tail)
	}

	w := New()
	w.At(1, func() {})
	w.At(1, func() {})
	w.Step()
	// The drained entry in the slot's backing array must be zeroed even
	// while the slot still holds the second event.
	sl := &w.slots[1]
	if sl.fns[:2][0] != nil {
		t.Fatal("drained wheel entry still holds its closure; closure not released")
	}
}

// demandMix is a closed population of self-rescheduling events whose
// delays cycle through a fixed palette in LCG order: a stand-in for the
// simulator's demand path, where every pending memory operation holds one
// event that reschedules itself at a short fixed latency and the overflow
// heap stays idle.
type demandMix struct {
	s      *Sim
	x      uint64 // LCG state
	delays []uint64
	hops   []func()
	fired  int
}

func newDemandMix(population int, delays []uint64) *demandMix {
	d := &demandMix{s: New(), x: 1, delays: delays}
	d.s.Reserve(population * WheelHorizon / 4) // as sim.Build does: no append-growth mid-run
	d.hops = make([]func(), population)
	for j := range d.hops {
		d.hops[j] = func() {
			d.fired++
			d.x = d.x*6364136223846793005 + 1442695040888963407
			d.s.After(d.delays[(d.x>>33)%uint64(len(d.delays))], d.hops[j])
		}
	}
	for j, h := range d.hops {
		d.s.At(uint64(j)/2, h)
	}
	return d
}

// run steps the engine through n more events.
func (d *demandMix) run(n int) {
	for target := d.fired + n; d.fired < target; {
		d.s.Step()
	}
}

// BenchmarkEngineDemandMix approximates the event mix of a detailed
// simulation run, one event per op: 56 pending events with delays drawn
// from {1, 2, 8, 30, 32, 146} cycles, so that about half of all events
// (48%) fire at the cycle of the event before them and most of the rest
// after gaps of one or two cycles, with an empty heap.
func BenchmarkEngineDemandMix(b *testing.B) {
	d := newDemandMix(56, []uint64{1, 2, 8, 30, 32, 146})
	d.run(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	d.run(b.N)
}

// TestZeroAllocEngine: on a reserved, warmed wheel, scheduling and firing
// same-cycle (delay 0) and short-gap events allocates nothing.
func TestZeroAllocEngine(t *testing.T) {
	d := newDemandMix(56, []uint64{0, 1, 2, 8, 30, 32, 146})
	d.run(100_000)
	if allocs := testing.AllocsPerRun(10, func() { d.run(10_000) }); allocs != 0 {
		t.Fatalf("a warmed wheel allocates %.1f times per 10000 events, want 0", allocs)
	}
}
