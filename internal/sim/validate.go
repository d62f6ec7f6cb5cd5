package sim

import (
	"fmt"

	"pageseer/internal/cache"
	"pageseer/internal/core"
	"pageseer/internal/hmc"
	"pageseer/internal/mempod"
	"pageseer/internal/pom"
	"pageseer/internal/workload"
)

// Validate reports whether cfg describes a buildable run: a known workload
// and scheme, and cache/metadata-cache geometries that survive scaling.
// Build calls it first, so a bad flag combination surfaces as one wrapped
// error ("sim: invalid config: ...") instead of a panic from deep inside
// construction. Normalisations Build applies silently (Scale<1 becomes 1, a
// zero CoreConfig takes the default) are not errors here either.
func (cfg Config) Validate() error {
	fail := func(err error) error { return fmt.Errorf("sim: invalid config: %w", err) }

	if _, ok := workload.MixByName(cfg.Workload); !ok {
		if _, err := workload.ProfileByName(cfg.Workload); err != nil {
			return fail(fmt.Errorf("workload %q is neither a benchmark nor a mix", cfg.Workload))
		}
	}
	if cfg.MaxCores < 0 {
		return fail(fmt.Errorf("max cores %d is negative", cfg.MaxCores))
	}
	if cfg.CoreConfig.MaxOutstanding < 0 {
		return fail(fmt.Errorf("core window %d is negative", cfg.CoreConfig.MaxOutstanding))
	}
	if cfg.Sample > 0 {
		if cfg.SampleWindow == 0 {
			return fail(fmt.Errorf("sampling (sample=%d) requires a sample window", cfg.Sample))
		}
		if cfg.InstrPerCore == 0 || cfg.InstrPerCore%cfg.Sample != 0 {
			return fail(fmt.Errorf("sample count %d does not tile the %d-instruction measured region", cfg.Sample, cfg.InstrPerCore))
		}
		stride := cfg.InstrPerCore / cfg.Sample
		if cfg.SampleWindow > stride {
			return fail(fmt.Errorf("sample window %d exceeds the %d-instruction stride", cfg.SampleWindow, stride))
		}
		if cfg.SampleWarmup > cfg.Warmup {
			return fail(fmt.Errorf("sample warmup %d exceeds the global %d-instruction warm-up it is carved from", cfg.SampleWarmup, cfg.Warmup))
		}
		if cfg.Sample > 1 && cfg.SampleWarmup+cfg.SampleWindow > stride {
			return fail(fmt.Errorf("sample warmup %d + window %d exceed the %d-instruction stride", cfg.SampleWarmup, cfg.SampleWindow, stride))
		}
	} else if cfg.SampleWindow > 0 || cfg.SampleWarmup > 0 {
		return fail(fmt.Errorf("sample window/warmup set but sampling is off (sample=0)"))
	}

	scale := cfg.Scale
	if scale < 1 {
		scale = 1
	}
	// The scaled hierarchy: scaleCache keeps sizes power-of-two multiples of
	// the floors, so these only fail when a future change breaks that
	// contract — but checking them here keeps the diagnosis a one-liner.
	for _, base := range []struct {
		cfg   cache.Config
		floor int
	}{
		{cache.L1Config(), 4 << 10},
		{cache.L2Config(), 16 << 10},
		{cache.L3Config(), 64 << 10},
	} {
		c := base.cfg
		c.SizeBytes = scaleCache(c.SizeBytes, scale, base.floor)
		if err := c.Validate(); err != nil {
			return fail(err)
		}
	}

	if cfg.customManager != nil {
		return nil // scheme checks don't apply; the factory owns construction
	}
	switch cfg.Scheme {
	case SchemeStatic:
	case SchemePageSeer, SchemePageSeerNoCorr:
		var pcfg core.Config
		if cfg.pageSeerCfg != nil {
			pcfg = *cfg.pageSeerCfg
		} else {
			pcfg = core.DefaultConfig().Scale(scale)
		}
		for _, mc := range []hmc.MetaCacheConfig{
			{Name: "PRTc", Entries: pcfg.PRTcEntries, Ways: pcfg.PRTcWays, EntriesPerLine: 18},
			{Name: "PCTc", Entries: pcfg.PCTcEntries, Ways: pcfg.PCTcWays, EntriesPerLine: 6},
		} {
			if err := mc.Validate(); err != nil {
				return fail(err)
			}
		}
	case SchemePoM:
		pcfg := pom.DefaultConfig().Scale(scale)
		mc := hmc.MetaCacheConfig{Name: "SRC", Entries: pcfg.SRCEntries, Ways: pcfg.SRCWays}
		if err := mc.Validate(); err != nil {
			return fail(err)
		}
	case SchemeMemPod:
		mcfg := mempod.DefaultConfig().Scale(scale)
		mc := hmc.MetaCacheConfig{Name: "remap", Entries: mcfg.RemapEntries, Ways: mcfg.RemapWays}
		if err := mc.Validate(); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("unknown scheme %q", cfg.Scheme))
	}
	return nil
}
