package obs

import "testing"

// TestZeroAllocEnabledHistogram: the latency histograms are cheap enough to
// stay on for every run — recording must never allocate even when enabled.
func TestZeroAllocEnabledHistogram(t *testing.T) {
	ls := &LatencySet{}
	var v uint64
	n := testing.AllocsPerRun(1000, func() {
		v += 37
		ls.Record(LatSource(v%uint64(NumLatSources)), v)
	})
	if n != 0 {
		t.Fatalf("enabled histogram Record allocates %.1f times per call, want 0", n)
	}
}

// TestZeroAllocDisabledProbe: a run with no observer fires every
// swap-lifecycle event into an empty stream, and no event may allocate.
// Part of the Makefile `allocguard` gate.
func TestZeroAllocDisabledProbe(t *testing.T) {
	var stream Probes
	s := &Swap{Addr: 0x1000, Victim: 0x2000, HasVictim: true, Trigger: TrigMMU, ID: 1}
	n := testing.AllocsPerRun(1000, func() {
		stream.Hint(0x1000, 10, 12, 0, 1)
		stream.Demand(0x1000, false, LatDRAM, 20)
		stream.Writeback(0x1000, false, 30)
		stream.Functional(0x1000, true, false, 40)
		stream.SwapRequested(0x1000, "regular", 50)
		stream.SwapQueued(0x1000, "regular", 50, 60)
		stream.SwapStarted(s)
		stream.SwapStage(s, 0, 60, 100, 64)
		stream.SwapCommitted(s, 100)
		stream.SwapSettled(100)
	})
	if n != 0 {
		t.Fatalf("disabled probe allocates %.1f times per lifecycle, want 0", n)
	}
}
