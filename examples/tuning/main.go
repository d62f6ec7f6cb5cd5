// Tuning: sweep PageSeer's hardware knobs — the PCTc prefetch threshold and
// the Swap Driver bandwidth heuristic — on one workload, the kind of design
// exploration Table II's parameters came from.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pageseer/internal/core"
	"pageseer/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run sweeps both knobs and writes the two tables to w.
func run(w io.Writer) error {
	const wl = "lbm"
	base := sim.DefaultConfig()
	base.Workload = wl
	base.InstrPerCore = 1_500_000
	base.Warmup = 750_000

	fmt.Fprintf(w, "PageSeer design sweep on %s\n\n", wl)

	fmt.Fprintln(w, "PCTc prefetch-swap threshold (paper value: 14):")
	fmt.Fprintf(w, "  %9s %8s %10s %12s %10s\n", "threshold", "IPC", "AMMAT", "swaps/Ki", "accuracy")
	for _, threshold := range []uint32{6, 10, 14, 20, 28} {
		pcfg := core.DefaultConfig().Scale(base.Scale)
		pcfg.PCTThreshold = threshold
		pcfg.AccuracyTarget = uint64(threshold)
		res, err := simulate(base, pcfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %9d %8.3f %10.1f %12.3f %9.1f%%\n",
			threshold, res.IPC, res.AMMAT, res.SwapsPerKI, res.PrefetchAccuracy*100)
	}

	fmt.Fprintln(w, "\nSwap Driver bandwidth heuristic (Section V-B):")
	fmt.Fprintf(w, "  %9s %8s %10s %12s %10s\n", "gate", "IPC", "AMMAT", "swaps/Ki", "declined")
	for _, gate := range []float64{0.5, 0.7, 0.9, 1.01 /* never */} {
		pcfg := core.DefaultConfig().Scale(base.Scale)
		pcfg.BWSatFraction = gate
		label := fmt.Sprintf("%.2f", gate)
		if gate > 1 {
			label = "off"
		}
		res, err := simulate(base, pcfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %9s %8.3f %10.1f %12.3f %10d\n",
			label, res.IPC, res.AMMAT, res.SwapsPerKI, res.PS.DeclinedBW)
	}
	return nil
}

// simulate builds and runs one PageSeer system under pcfg.
func simulate(cfg sim.Config, pcfg core.Config) (sim.Results, error) {
	sys, err := sim.BuildWithPageSeerConfig(cfg, pcfg)
	if err != nil {
		return sim.Results{}, err
	}
	return sys.Run()
}
