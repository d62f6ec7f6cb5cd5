package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/core"
	"pageseer/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // "" = valid
	}{
		{"default", func(c *Config) {}, ""},
		{"every scheme", func(c *Config) { c.Scheme = SchemeMemPod }, ""},
		{"scale normalised", func(c *Config) { c.Scale = 0 }, ""},
		{"unknown workload", func(c *Config) { c.Workload = "nope" }, "workload"},
		{"unknown scheme", func(c *Config) { c.Scheme = "quantum" }, "scheme"},
		{"negative cores", func(c *Config) { c.MaxCores = -1 }, "cores"},
		{"fault rate in range", func(c *Config) { c.Faults = check.FaultPlan{Kind: check.FaultMetaThrash, Rate: 1} }, ""},
		{"negative fault rate", func(c *Config) { c.Faults = check.FaultPlan{Kind: check.FaultMetaThrash, Rate: -1} }, "fault rate"},
		{"fault rate above 1", func(c *Config) { c.Faults.Rate = 5 }, "fault rate"},
		{"NaN fault rate", func(c *Config) { c.Faults.Rate = math.NaN() }, "fault rate"},
		{"pagemap on", func(c *Config) { c.Obs.PageMap = true }, ""},
		{"PRTc wider than an LRU order word", func(c *Config) {
			p := core.DefaultConfig()
			p.PRTcWays = 32
			c.pageSeerCfg = &p
		}, "32 ways"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Workload = "lbm"
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate() accepted a bad config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "invalid config") || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %q, want wrapped %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestBuildSurfacesValidateError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "lbm"
	cfg.Scheme = "quantum"
	if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "invalid config") {
		t.Fatalf("Build() = %v, want the Validate diagnosis", err)
	}
}

// FuzzConfigValidate drives Validate with arbitrary flag combinations: it
// must never panic, always wrap its diagnosis, and pass only configs Build
// accepts. Validate and Build resolve the scheme, scale the caches and
// size the footprints through the same functions (resolveScheme,
// cacheConfigs, cores), so the two cannot disagree on a declared geometry;
// the fuzz target catches a construction failure that no declared check
// covers.
func FuzzConfigValidate(f *testing.F) {
	f.Add("lbm", "pageseer", 128, 0, 0.0)
	f.Add("mix6", "pom", 1, 4, 0.5)
	f.Add("nope", "mempod", 64, -1, -1.0)
	f.Add("GemsFDTD", "quantum", 0, 2, 2.0)
	f.Add("leslie3d", "pom", 2048, 0, 0.0)
	f.Add("lbm", "pageseer", 65536, 0, 0.0)
	f.Fuzz(func(t *testing.T, wl, scheme string, scale, maxCores int, rate float64) {
		cfg := DefaultConfig()
		cfg.Workload = wl
		cfg.Scheme = Scheme(scheme)
		cfg.Scale = scale
		cfg.MaxCores = maxCores
		cfg.Faults = check.FaultPlan{Kind: check.FaultMetaThrash, Rate: rate}

		err := cfg.Validate() // must not panic on any input
		if err != nil && !strings.Contains(err.Error(), "invalid config") {
			t.Fatalf("unwrapped diagnosis: %v", err)
		}
		if err == nil && scale >= 0 && scale <= 1<<16 && maxCores <= 64 {
			if _, berr := Build(cfg); berr != nil {
				t.Fatalf("Validate passed but Build failed: %v", berr)
			}
		}
	})
}

// TestValidateMatchesBuild: over every workload and scheme at scales from
// the default to past the point where footprints no longer fit, Validate
// accepts exactly the configs Build can construct.
func TestValidateMatchesBuild(t *testing.T) {
	schemes := []Scheme{SchemeStatic, SchemePageSeer, SchemePageSeerNoCorr, SchemePoM, SchemeMemPod}
	for _, scale := range []int{128, 1024, 2048, 4096, 8192} {
		for _, wl := range workload.AllWorkloadNames() {
			for _, s := range schemes {
				cfg := DefaultConfig()
				cfg.Workload, cfg.Scheme, cfg.Scale = wl, s, scale
				verr := cfg.Validate()
				_, berr := buildNoPanic(cfg)
				if (verr == nil) != (berr == nil) {
					t.Errorf("%s/%s at scale %d: Validate() = %v, Build() = %v", wl, s, scale, verr, berr)
				}
			}
		}
	}
}

// buildNoPanic is Build with a construction panic reported as an error.
func buildNoPanic(cfg Config) (sys *System, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return Build(cfg)
}
