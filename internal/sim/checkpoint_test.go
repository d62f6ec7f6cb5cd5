package sim

import (
	"reflect"
	"testing"
)

func ckptSampledConfig(scheme Scheme, wl string) Config {
	cfg := tinyConfig(scheme, wl)
	cfg.Sample = 6
	cfg.SampleWindow = 10_000
	cfg.SampleWarmup = 5_000
	return cfg
}

var ckptSchemes = []Scheme{SchemeStatic, SchemePageSeer, SchemePageSeerNoCorr, SchemePoM, SchemeMemPod, SchemeCAMEO}

// roundTrip runs cfg to the stopAt-th quiesce point, snapshots, restores in
// a fresh System (fresh Build, fresh engine), and finishes the run there.
func roundTrip(t *testing.T, cfg Config, stopAt int) Results {
	t.Helper()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.RunToQuiesce(func(p int) bool { return p == stopAt })
	if err != ErrPaused {
		t.Fatalf("RunToQuiesce(stop@%d) = %v, want ErrPaused", stopAt, err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot at point %d: %v", stopAt, err)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	res, err := restored.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res
}

// TestCheckpointRoundTripDetailed pins the tentpole invariant in detailed
// mode for every scheme: snapshot at the warm-up/measurement boundary,
// restore into a fresh process image, continue — Results must be
// byte-identical to the uninterrupted run.
func TestCheckpointRoundTripDetailed(t *testing.T) {
	for _, scheme := range ckptSchemes {
		cfg := tinyConfig(scheme, "lbm")
		want := runOnce(t, cfg)
		got := roundTrip(t, cfg, 0)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: restored run diverged from uninterrupted:\nwant %+v\ngot  %+v", scheme, want, got)
		}
	}
}

// TestCheckpointRoundTripSampled pins the same invariant in sampled mode,
// snapshotting at a mid-grid fast-forward gap boundary so the cursor (window
// index, calibration accumulators, merged window Results, IPC extrema) must
// survive the trip too.
func TestCheckpointRoundTripSampled(t *testing.T) {
	for _, scheme := range ckptSchemes {
		cfg := ckptSampledConfig(scheme, "lbm")
		want := runOnce(t, cfg)
		got := roundTrip(t, cfg, 3)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s (sampled): restored run diverged from uninterrupted:\nwant %+v\ngot  %+v", scheme, want, got)
		}
	}
}

// TestCheckpointResumeInPlace verifies a paused system can also just keep
// going in-process (pause is not destructive).
func TestCheckpointResumeInPlace(t *testing.T) {
	cfg := tinyConfig(SchemePageSeer, "GemsFDTD")
	want := runOnce(t, cfg)
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunToQuiesce(func(int) bool { return true }); err != ErrPaused {
		t.Fatalf("pause: %v", err)
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	got, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("in-place resume diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestSnapshotGates pins the refusal surface: configurations whose runtime
// state lives outside the checkpoint must be rejected up front, not
// half-serialized.
func TestSnapshotGates(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"audit", func(c *Config) { c.Audit = true }},
		{"ledger", func(c *Config) { c.Obs.Ledger = true }},
		{"cpi", func(c *Config) { c.Obs.CPI = true }},
		{"trace", func(c *Config) { c.Obs.Trace = true }},
		{"timeline", func(c *Config) { c.Obs.TimelineEvery = 1000 }},
		{"pagemap", func(c *Config) { c.Obs.PageMap = true }},
	}
	for _, tc := range cases {
		cfg := tinyConfig(SchemeStatic, "lbm")
		tc.mut(&cfg)
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Snapshot(); err == nil {
			t.Errorf("%s: snapshot accepted a gated configuration", tc.name)
		}
	}
}

// TestSnapshotRefusesCorruption verifies a flipped byte anywhere in the
// payload is caught by the integrity hash before any component decodes.
func TestSnapshotRefusesCorruption(t *testing.T) {
	cfg := tinyConfig(SchemeStatic, "lbm")
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunToQuiesce(func(int) bool { return true }); err != ErrPaused {
		t.Fatalf("pause: %v", err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{7, len(data) / 2, len(data) - 40} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := Restore(mut); err == nil {
			t.Errorf("corruption at offset %d not detected", off)
		}
	}
}

// FuzzCheckpointQuiesce fuzzes the (scheme, geometry, quiesce point) space:
// whatever quiesce point the fuzzer picks, snapshot + restore + continue
// must reproduce the uninterrupted run's Results exactly.
func FuzzCheckpointQuiesce(f *testing.F) {
	f.Add(uint8(1), uint8(2), true)
	f.Add(uint8(3), uint8(0), false)
	f.Add(uint8(4), uint8(5), true)
	f.Add(uint8(0), uint8(1), true)
	f.Add(uint8(5), uint8(4), true)
	f.Fuzz(func(t *testing.T, schemeSel, pointSel uint8, sampled bool) {
		scheme := ckptSchemes[int(schemeSel)%len(ckptSchemes)]
		var cfg Config
		var points int
		if sampled {
			cfg = ckptSampledConfig(scheme, "lbm")
			points = int(cfg.Sample) // pause points 0..Sample-1
		} else {
			cfg = tinyConfig(scheme, "lbm")
			points = 1
		}
		stopAt := int(pointSel) % points
		want := runOnce(t, cfg)
		got := roundTrip(t, cfg, stopAt)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s sampled=%v stop@%d: restored run diverged", scheme, sampled, stopAt)
		}
	})
}
