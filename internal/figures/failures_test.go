package figures

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pageseer/internal/sim"
	"pageseer/internal/stats"
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

// TestGapRuleEveryShape pins how each figure and table drops a failed run,
// for every shape a builder iterates in: per workload (Figures 9, 10, 12,
// 13, 14, the ablation, the latency table), per suite mean (Figures 7, 8,
// 11) and per (workload, scheme) cell (the effectiveness, CPI-stack and
// churn tables). GemsFDTD/pageseer fails; lbm, the other SPEC workload,
// survives. GemsFDTD comes first, so a gap that ended a whole figure
// instead of one workload would show.
func TestGapRuleEveryShape(t *testing.T) {
	simulateHook = func(cfg sim.Config) {
		if cfg.Workload == "GemsFDTD" && cfg.Scheme == sim.SchemePageSeer && !cfg.DisableBWOpt {
			panic("figures: injected mid-campaign panic")
		}
	}
	defer func() { simulateHook = nil }()

	opts := isolationOptions()
	opts.Workloads = []string{"GemsFDTD", "lbm"}
	opts.Config.Obs.Ledger, opts.Config.Obs.CPI, opts.Config.Obs.PageMap = true, true, true
	r := NewRunner(opts)
	if err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	get := func(k Key) sim.Results {
		t.Helper()
		res, err := r.run(k, nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", k.Workload, k.Label(), err)
		}
		return res
	}

	// Per workload: a tuple with the failed run loses its workload's row.
	for _, fig := range []struct {
		name  string
		build func() ([]string, error)
	}{
		{"Figure9", func() ([]string, error) { return rowNames(Figure9(r)) }},
		{"Figure10", func() ([]string, error) { return rowNames(Figure10(r)) }},
		{"Figure12", func() ([]string, error) { return rowNames(Figure12(r)) }},
		{"Figure13", func() ([]string, error) { return rowNames(Figure13(r)) }},
		{"Figure14", func() ([]string, error) { s, err := Figure14(r); return rowNames(s.Rows, err) }},
		{"Ablation", func() ([]string, error) { return rowNames(Ablation(r)) }},
		{"LatencyTable", func() ([]string, error) { return rowNames(LatencyTable(r)) }},
	} {
		got, err := fig.build()
		if err != nil {
			t.Fatalf("%s refused the gapped campaign: %v", fig.name, err)
		}
		if !reflect.DeepEqual(got, []string{"lbm"}) {
			t.Errorf("%s rows = %v, want only lbm", fig.name, got)
		}
	}

	// Per suite: a pair with the failed run leaves the suite mean, and a
	// bar keeps every workload whose own run succeeded.
	f11, err := Figure11(r)
	if err != nil {
		t.Fatal(err)
	}
	with := get(Key{Workload: "lbm", Scheme: sim.SchemePageSeer}).SwapsPerKI
	without := get(Key{Workload: "lbm", Scheme: sim.SchemePageSeer, DisableBW: true}).SwapsPerKI
	if want := []Figure11Row{{Group: "SPEC", WithBW: with, WithoutBW: without}}; !reflect.DeepEqual(f11, want) {
		t.Errorf("Figure11 = %+v, want %+v", f11, want)
	}
	f7, err := Figure7(r)
	if err != nil {
		t.Fatal(err)
	}
	d, n, b := get(Key{Workload: "lbm", Scheme: sim.SchemePageSeer}).ServiceBreakdown()
	if want := (Figure7Row{Group: "SPEC", Scheme: sim.SchemePageSeer, DRAM: d, NVM: n, Buffer: b}); !slices.Contains(f7, want) {
		t.Errorf("Figure7 = %+v, want lbm's own PageSeer bar %+v", f7, want)
	}
	d1, n1, b1 := get(Key{Workload: "GemsFDTD", Scheme: sim.SchemePoM}).ServiceBreakdown()
	d2, n2, b2 := get(Key{Workload: "lbm", Scheme: sim.SchemePoM}).ServiceBreakdown()
	if want := (Figure7Row{Group: "SPEC", Scheme: sim.SchemePoM,
		DRAM: stats.Mean([]float64{d1, d2}), NVM: stats.Mean([]float64{n1, n2}), Buffer: stats.Mean([]float64{b1, b2})}); !slices.Contains(f7, want) {
		t.Errorf("Figure7 = %+v, want a PoM bar averaging both workloads %+v", f7, want)
	}
	if len(f7) != 3 {
		t.Errorf("Figure7 has %d bars, want SPEC's 3", len(f7))
	}
	f8, err := Figure8(r)
	if err != nil {
		t.Fatal(err)
	}
	p, ng, u := get(Key{Workload: "lbm", Scheme: sim.SchemePageSeer}).AccessEffectiveness()
	if want := (Figure8Row{Group: "SPEC", Scheme: sim.SchemePageSeer, Positive: p, Negative: ng, Neutral: u}); len(f8) != 3 || !slices.Contains(f8, want) {
		t.Errorf("Figure8 = %+v, want SPEC's 3 bars with lbm's own PageSeer bar %+v", f8, want)
	}

	// Per cell: only the failed (workload, scheme) cell goes.
	for _, tab := range []struct {
		name  string
		build func() ([]string, error)
		want  int
	}{
		{"EffectivenessTable", func() ([]string, error) { return rowNames(EffectivenessTable(r)) }, 5},
		{"CPIStackTable", func() ([]string, error) { return rowNames(CPIStackTable(r)) }, 7},
		{"ChurnTable", func() ([]string, error) { return rowNames(ChurnTable(r)) }, 5},
	} {
		got, err := tab.build()
		if err != nil {
			t.Fatalf("%s refused the gapped campaign: %v", tab.name, err)
		}
		if len(got) != tab.want || slices.Contains(got, "GemsFDTD/pageseer") {
			t.Errorf("%s cells = %v, want %d without GemsFDTD/pageseer", tab.name, got, tab.want)
		}
	}
}

// rowNames names each row by its Workload field, followed by "/" and its
// Scheme field where the row has one.
func rowNames[T any](rows []T, err error) ([]string, error) {
	var names []string
	for _, row := range rows {
		v := reflect.ValueOf(row)
		name := v.FieldByName("Workload").String()
		if s := v.FieldByName("Scheme"); s.IsValid() {
			name += "/" + s.String()
		}
		names = append(names, name)
	}
	return names, err
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
