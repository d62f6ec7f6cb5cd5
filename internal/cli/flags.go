// Package cli is the command-line surface pageseer-sim and paper-figures
// share: one definition of their common flags, the validation those flags
// need, their mapping onto a run's configuration, the profiling they switch
// on, the run lifecycle around their figures.Runner (Session), and the
// table file writers.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pageseer/internal/check"
	"pageseer/internal/sim"
)

// Flags holds the parsed values of the shared flags.
type Flags struct {
	Scale         int
	Instr         uint64
	Warmup        uint64
	Seed          uint64
	MaxCores      int
	Jobs          int
	Sample        uint64
	SampleWindow  uint64
	SampleWarmup  uint64
	Audit         bool
	CrashdumpDir  string
	RunTimeout    time.Duration
	Effectiveness bool

	fault      string
	faultRate  float64
	faultSeed  uint64
	cpuProfile string
	memProfile string
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Scale, "scale", 0, "memory scale denominator (0 = default)")
	fs.Uint64Var(&f.Instr, "instr", 0, "measured instructions per core (0 = default)")
	fs.Uint64Var(&f.Warmup, "warmup", 0, "warm-up instructions per core (0 = default)")
	fs.Uint64Var(&f.Seed, "seed", 1, "workload seed")
	fs.IntVar(&f.MaxCores, "maxcores", 0, "cap on cores per workload (0 = paper counts)")
	fs.IntVar(&f.Jobs, "j", runtime.GOMAXPROCS(0), "parallel simulation runs (each run stays single-threaded and deterministic)")
	fs.Uint64Var(&f.Sample, "sample", 0, "SMARTS-style sampled execution: number of detailed windows per run (0 = full detailed runs)")
	fs.Uint64Var(&f.SampleWindow, "sample-window", 0, "instructions per core measured in each sample window (requires -sample)")
	fs.Uint64Var(&f.SampleWarmup, "sample-warmup", 0, "detailed-but-discarded warm-up instructions per core before each window")
	fs.BoolVar(&f.Audit, "audit", false, "run end-of-run invariant audits and the liveness watchdog on every run")
	fs.StringVar(&f.fault, "fault", "none", "deterministic fault injection: none | swap-exhaustion | meta-thrash | queue-saturation | demand-storm")
	fs.Float64Var(&f.faultRate, "fault-rate", 0, "fault trigger probability per decision point (0 = kind default)")
	fs.Uint64Var(&f.faultSeed, "fault-seed", 1, "fault-injection RNG seed")
	fs.StringVar(&f.CrashdumpDir, "crashdump-dir", ".", "directory for per-run crashdump files on failure")
	fs.DurationVar(&f.RunTimeout, "run-timeout", 0, "per-run wall-clock limit (e.g. 10m); a run exceeding it is aborted and fails with a crashdump")
	fs.BoolVar(&f.Effectiveness, "effectiveness", false, "attach the swap-provenance ledger to every run and print per-trigger swap effectiveness")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	return f
}

// faults returns the fault-injection plan -fault, -fault-rate and
// -fault-seed select.
func (f *Flags) faults() (check.FaultPlan, error) {
	k, err := check.ParseFault(f.fault)
	if err != nil {
		return check.FaultPlan{}, err
	}
	plan := check.FaultPlan{Kind: k, Rate: f.faultRate, Seed: f.faultSeed}
	return plan, plan.Validate()
}

// ApplyConfig sets a run's shape from the flags: scale, budgets and the
// core cap only when given (nonzero), since the caller's template may set
// its own; everything else as parsed. It rejects a negative -scale,
// -maxcores or -j, which would otherwise fall back to the default
// silently, and a -fault-rate outside [0, 1].
func (f *Flags) ApplyConfig(cfg *sim.Config) error {
	if f.Scale < 0 || f.MaxCores < 0 || f.Jobs < 0 {
		return fmt.Errorf("-scale %d, -maxcores %d, -j %d: none may be negative", f.Scale, f.MaxCores, f.Jobs)
	}
	plan, err := f.faults()
	if err != nil {
		return err
	}
	setIf(&cfg.Scale, f.Scale)
	setIf(&cfg.InstrPerCore, f.Instr)
	setIf(&cfg.Warmup, f.Warmup)
	setIf(&cfg.MaxCores, f.MaxCores)
	cfg.Seed = f.Seed
	cfg.Sample, cfg.SampleWindow, cfg.SampleWarmup = f.Sample, f.SampleWindow, f.SampleWarmup
	cfg.Audit = f.Audit
	cfg.Faults = plan
	return nil
}

func setIf[T int | uint64](dst *T, v T) {
	if v > 0 {
		*dst = v
	}
}

// StartProfiles starts the -cpuprofile CPU profile, if asked for, and
// returns the function that stops it and writes the -memprofile heap
// profile; the caller defers it.
func (f *Flags) StartProfiles() (stop func(), err error) {
	stopCPU := func() error { return nil }
	if f.cpuProfile != "" {
		out, err := os.Create(f.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return nil, err
		}
		stopCPU = func() error {
			pprof.StopCPUProfile()
			return out.Close()
		}
	}
	return func() {
		if err := stopCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
		if err := writeHeapProfile(f.memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}, nil
}

func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
