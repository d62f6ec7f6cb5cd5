package figures

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"pageseer/internal/sim"
)

// parTestOpts keeps the parallel campaign test fast: the quick workload
// subset at tiny budgets, so 8 workers × ~25 runs finish in seconds even
// under -race.
func parTestOpts() Options {
	o := QuickOptions()
	o.Config.InstrPerCore = 80_000
	o.Config.Warmup = 40_000
	o.Config.MaxCores = 2
	return o
}

// campaignResults drains every campaign key through the public accessors
// and returns the full result set keyed by (workload, scheme, nobw).
func campaignResults(t *testing.T, r *Runner) map[Key]sim.Results {
	t.Helper()
	out := make(map[Key]sim.Results)
	for _, k := range r.keys(AllNeeds()) {
		res, err := r.run(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = res
	}
	return out
}

// TestParallelCampaignMatchesSerial runs the quick campaign serially and at
// Parallelism 8 and asserts deeply-equal results — the determinism contract
// that lets parallelism live at the campaign level. Run under -race this
// also exercises the runner's locking.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	serial := NewRunner(parTestOpts())
	if err := serial.Prefetch(AllNeeds()); err != nil {
		t.Fatal(err)
	}
	want := campaignResults(t, serial)

	opts := parTestOpts()
	opts.Parallelism = 8
	par := NewRunner(opts)
	if par.Parallelism() != 8 {
		t.Fatalf("Parallelism() = %d, want 8", par.Parallelism())
	}
	if err := par.RunAll(); err != nil {
		t.Fatal(err)
	}
	got := campaignResults(t, par)

	if !reflect.DeepEqual(got, want) {
		for k, w := range want {
			if g := got[k]; g != w {
				t.Errorf("%s/%s nobw=%v diverges:\n  serial   %+v\n  parallel %+v",
					k.Workload, k.Scheme, k.DisableBW, w, g)
			}
		}
		t.Fatal("parallel campaign results differ from serial")
	}
}

// TestRunnerSingleflight hammers one key from many goroutines and asserts
// the simulation executed exactly once.
func TestRunnerSingleflight(t *testing.T) {
	o := parTestOpts()
	o.Workloads = []string{"lbm"}
	r := NewRunner(o)
	var wg sync.WaitGroup
	results := make([]sim.Results, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run("lbm", sim.SchemePageSeer)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if len(r.cache) != 1 {
		t.Fatalf("cache holds %d entries, want 1 (singleflight broken)", len(r.cache))
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d saw different results", i)
		}
	}
}

// TestPrefetchProgressOrdered asserts progress lines come out in canonical
// campaign order even when workers finish out of order.
func TestPrefetchProgressOrdered(t *testing.T) {
	var serialBuf, parBuf bytes.Buffer

	o := parTestOpts()
	o.Workloads = []string{"lbm", "barnes"}
	o.Progress = &serialBuf
	o.Parallelism = 1
	if err := NewRunner(o).Prefetch(AllNeeds()); err != nil {
		t.Fatal(err)
	}

	o.Progress = &parBuf
	o.Parallelism = 8
	if err := NewRunner(o).Prefetch(AllNeeds()); err != nil {
		t.Fatal(err)
	}

	if serialBuf.String() != parBuf.String() {
		t.Fatalf("parallel progress log differs from serial:\nserial:\n%s\nparallel:\n%s",
			serialBuf.String(), parBuf.String())
	}
}
