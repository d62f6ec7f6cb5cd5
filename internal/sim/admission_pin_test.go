package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/obs"
)

// swapRecorder hashes every swap the engine starts (ID, unit, trigger,
// request cycle) and every commit cycle, in event order.
type swapRecorder struct {
	obs.NopProbe
	h hash.Hash
}

func (r *swapRecorder) SwapStarted(s *obs.Swap) {
	fmt.Fprintf(r.h, "S %d %#x %d %d\n", s.ID, s.Addr, s.Trigger, s.Request)
}

func (r *swapRecorder) SwapCommitted(s *obs.Swap, now uint64) {
	fmt.Fprintf(r.h, "C %d %d\n", s.ID, now)
}

// TestSwapAdmissionPinned pins which swaps each scheme starts, when it
// requested them and when they commit, plus PageSeer's counters, on runs
// where every admission path fires: PageSeer's luCon run upgrades queued
// requests, overflows the 1,024-unit queue and expires stale requests; its
// swap-exhaustion run re-enqueues starts the injector refuses; PoM drops
// requests at a full engine; MemPod drains queued interval bursts, with
// and without refused starts.
func TestSwapAdmissionPinned(t *testing.T) {
	cases := []struct {
		scheme         Scheme
		workload       string
		fault          check.FaultKind
		swaps, results string
	}{
		{SchemePageSeer, "luCon", check.FaultNone, "f1b43dab1c55768c", "cae63d037c72235b"},
		{SchemePageSeer, "GemsFDTD", check.FaultSwapExhaustion, "7e15b7274cedb6eb", "547fb86b712b9ced"},
		{SchemePoM, "GemsFDTD", check.FaultNone, "bd54b18fcb52c4bf", "71b0f743632a7ca6"},
		{SchemeMemPod, "GemsFDTD", check.FaultNone, "ea29ddbbdc4dc807", "71b0f743632a7ca6"},
		{SchemeMemPod, "GemsFDTD", check.FaultSwapExhaustion, "bde159bb01e9c7f2", "71b0f743632a7ca6"},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Scheme, cfg.Workload = c.scheme, c.workload
		cfg.InstrPerCore, cfg.Warmup, cfg.MaxCores = 400_000, 250_000, 4
		cfg.Faults = check.FaultPlan{Kind: c.fault, Seed: 7}
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &swapRecorder{h: sha256.New()}
		sys.Ctl.Attach(rec)
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s %s: %v", c.scheme, c.workload, err)
		}
		ps, err := json.Marshal(res.PS)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(ps)
		swaps, results := hex.EncodeToString(rec.h.Sum(nil)[:8]), hex.EncodeToString(sum[:8])
		if swaps != c.swaps || results != c.results {
			t.Errorf("%s %s %s: swaps %s results %s, want %s %s",
				c.scheme, c.workload, c.fault, swaps, results, c.swaps, c.results)
		}
	}
}
