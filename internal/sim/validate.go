package sim

import (
	"errors"
	"fmt"
)

// Validate reports whether cfg describes a buildable run: a known workload
// and scheme, cache/metadata-cache geometries that survive scaling, and a
// scaled memory that holds the run's footprints, page tables and
// controller tables.
// Build calls it first, so a bad flag combination surfaces as one wrapped
// error ("sim: invalid config: ...") instead of a panic from deep inside
// construction. The normalisation Build applies silently (Scale<1 becomes 1)
// is not an error here either.
func (cfg Config) Validate() error {
	_, err := cfg.validate()
	return err
}

// validate is Validate that also returns the factory resolveScheme made
// for cfg, the one Build installs. It checks cfg with Build's normalised
// scale, which cores and resolveScheme expect.
func (cfg Config) validate() (ManagerFactory, error) {
	fail := func(err error) (ManagerFactory, error) {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}

	cfg.Scale = max(cfg.Scale, 1)
	_, feet, err := cfg.cores()
	if err != nil {
		return fail(err)
	}
	if cfg.MaxCores < 0 {
		return fail(fmt.Errorf("max cores %d is negative", cfg.MaxCores))
	}
	if err := cfg.Faults.Validate(); err != nil {
		return fail(err)
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

	l1, l2, l3 := cacheConfigs(cfg.Scale)
	if err := errors.Join(l1.Validate(), l2.Validate(), l3.Validate()); err != nil {
		return fail(err)
	}
	install, tables, err := cfg.resolveScheme()
	if err != nil {
		return fail(err)
	}
	if err := checkFits(cfg.Scale, tables, feet); err != nil {
		return fail(err)
	}
	return install, nil
}
