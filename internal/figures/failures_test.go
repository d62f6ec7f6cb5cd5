package figures

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pageseer/internal/sim"
)

func isolationOptions() Options {
	return Options{
		Config:      sim.Config{Scale: 128, InstrPerCore: 120_000, Warmup: 60_000, Seed: 1, MaxCores: 2},
		Workloads:   []string{"lbm", "GemsFDTD"},
		Parallelism: 2,
	}
}

// TestCampaignSurvivesRunPanic is the acceptance test for run isolation: a
// deliberately injected panic in one (workload, scheme) run must leave a
// completed campaign — that run reported failed with a crashdump, every
// other run byte-identical to a clean campaign, and the affected figure
// showing a gap rather than aborting.
func TestCampaignSurvivesRunPanic(t *testing.T) {
	opts := isolationOptions()

	clean := NewRunner(opts)
	if err := clean.RunAll(); err != nil {
		t.Fatal(err)
	}

	simulateHook = func(cfg sim.Config) {
		if cfg.Workload == "GemsFDTD" && cfg.Scheme == sim.SchemePageSeer && !cfg.DisableBWOpt {
			panic("figures: injected mid-campaign panic")
		}
	}
	defer func() { simulateHook = nil }()

	faulty := NewRunner(opts)
	if err := faulty.RunAll(); err != nil {
		t.Fatalf("one bad run aborted the campaign: %v", err)
	}

	fails := faulty.Failures()
	if len(fails) != 1 {
		t.Fatalf("Failures() = %d entries, want exactly the injected one", len(fails))
	}
	f := fails[0]
	if f.Workload != "GemsFDTD" || f.Scheme != string(sim.SchemePageSeer) {
		t.Fatalf("failure identity = %s/%s", f.Workload, f.Scheme)
	}
	if f.Err == nil || !strings.Contains(f.Err.Cause.Error(), "injected") {
		t.Fatalf("failure cause = %v", f.Err)
	}
	if f.Err.Crashdump == "" {
		t.Fatal("failure carries no crashdump")
	}

	// Every unaffected run must be byte-identical to the clean campaign.
	for _, wl := range opts.Workloads {
		for _, sch := range []sim.Scheme{sim.SchemePoM, sim.SchemeMemPod, sim.SchemePageSeer, sim.SchemePageSeerNoCorr} {
			if wl == "GemsFDTD" && sch == sim.SchemePageSeer {
				continue
			}
			want, err1 := clean.Run(wl, sch)
			got, err2 := faulty.Run(wl, sch)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%s: unexpected errors %v / %v", wl, sch, err1, err2)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: results diverged from the clean campaign", wl, sch)
			}
		}
		nobw := Key{Workload: wl, Scheme: sim.SchemePageSeer, DisableBW: true}
		want, err1 := clean.run(nobw, nil)
		got, err2 := faulty.run(nobw, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s nobw: unexpected errors %v / %v", wl, err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s nobw: results diverged from the clean campaign", wl)
		}
	}

	// The per-workload PageSeer figure shows a gap, not an abort.
	rows, err := Figure9(faulty)
	if err != nil {
		t.Fatalf("Figure9 refused the gapped campaign: %v", err)
	}
	for _, row := range rows {
		if row.Workload == "GemsFDTD" {
			t.Fatal("Figure9 fabricated a row for the failed run")
		}
	}
	if len(rows) == 0 {
		t.Fatal("Figure9 dropped the surviving workloads too")
	}
}

// TestRunTimeoutAbortsRun: a run exceeding Options.RunTimeout is aborted at
// an event boundary and absorbed as a campaign gap (a *sim.RunError with
// the deadline in its cause), never a hang or a campaign abort.
func TestRunTimeoutAbortsRun(t *testing.T) {
	opts := isolationOptions()
	opts.Workloads = []string{"lbm"}
	opts.RunTimeout = time.Nanosecond // fires before the run's first abort poll

	r := NewRunner(opts)
	_, err := r.Run("lbm", sim.SchemePageSeer)
	var re *sim.RunError
	if !errors.As(err, &re) {
		t.Fatalf("timed-out run returned %v, want a *sim.RunError", err)
	}
	if !strings.Contains(re.Cause.Error(), "timeout") {
		t.Fatalf("abort cause does not name the timeout: %v", re.Cause)
	}
	if fails := r.Failures(); len(fails) != 1 {
		t.Fatalf("Failures() = %d entries, want the timed-out run", len(fails))
	}
}

// TestStopSkipsQueuedRuns: after Stop, runs that have not started fail fast
// with ErrStopped instead of executing.
func TestStopSkipsQueuedRuns(t *testing.T) {
	r := NewRunner(isolationOptions())
	r.Stop()
	if _, err := r.Run("lbm", sim.SchemePageSeer); !errors.Is(err, ErrStopped) {
		t.Fatalf("run on a stopped campaign returned %v, want ErrStopped", err)
	}
}

// TestFailuresListsRunsOutsideTheCampaign: a failed run outside the
// canonical key set — a static CPI-stack baseline, or whatever scheme
// pageseer-sim runs — is listed by Failures after the canonical ones, so
// the CLIs exit non-zero and write its crashdump.
func TestFailuresListsRunsOutsideTheCampaign(t *testing.T) {
	simulateHook = func(cfg sim.Config) {
		if cfg.Scheme == sim.SchemeStatic || cfg.Scheme == sim.SchemeMemPod {
			panic("figures: injected failure")
		}
	}
	defer func() { simulateHook = nil }()

	opts := isolationOptions()
	opts.Workloads = []string{"lbm"}
	r := NewRunner(opts)
	if _, err := r.Run("lbm", sim.SchemeStatic); !isGap(err) {
		t.Fatalf("static run returned %v, want its *sim.RunError", err)
	}
	if _, err := r.Run("lbm", sim.SchemeMemPod); !isGap(err) {
		t.Fatalf("mempod run returned %v, want its *sim.RunError", err)
	}
	var got []string
	for _, f := range r.Failures() {
		got = append(got, f.Workload+"/"+f.Scheme)
	}
	if want := []string{"lbm/mempod", "lbm/static"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Failures() = %v, want %v (canonical keys first, then the rest)", got, want)
	}
}

// TestRunKeysHandsEachSystemToTheSink: RunKeys returns results in key
// order and gives the sink every system it simulates, once; a sink error
// fails that run, and a sink panic becomes the run's *sim.RunError.
func TestRunKeysHandsEachSystemToTheSink(t *testing.T) {
	r := NewRunner(isolationOptions())
	keys := []Key{
		{Workload: "GemsFDTD", Scheme: sim.SchemePoM},
		{Workload: "lbm", Scheme: sim.SchemePoM},
		{Workload: "GemsFDTD", Scheme: sim.SchemePoM}, // memoised: no second sink call
	}
	var mu sync.Mutex
	sunk := map[string]int{}
	results, errs := r.RunKeys(keys, func(sys *sim.System) error {
		mu.Lock()
		defer mu.Unlock()
		sunk[sys.Cfg.Workload]++
		return nil
	})
	for i, k := range keys {
		if errs[i] != nil || results[i].Workload != k.Workload {
			t.Fatalf("key %d (%s): results for %q, err %v", i, k.Workload, results[i].Workload, errs[i])
		}
	}
	if want := map[string]int{"GemsFDTD": 1, "lbm": 1}; !reflect.DeepEqual(sunk, want) {
		t.Fatalf("sink calls = %v, want %v", sunk, want)
	}

	failing := []Key{{Workload: "lbm", Scheme: sim.SchemeStatic}, {Workload: "GemsFDTD", Scheme: sim.SchemeStatic}}
	_, errs = r.RunKeys(failing, func(sys *sim.System) error {
		if sys.Cfg.Workload == "lbm" {
			return errors.New("sink refused")
		}
		panic("sink crashed")
	})
	if errs[0] == nil || isGap(errs[0]) || !strings.Contains(errs[0].Error(), "sink refused") {
		t.Fatalf("sink error surfaced as %v, want the sink's own error", errs[0])
	}
	if !isGap(errs[1]) {
		t.Fatalf("sink panic surfaced as %v, want a *sim.RunError", errs[1])
	}
}
