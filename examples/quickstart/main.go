// Quickstart: build one PageSeer system, run it, and read the headline
// numbers — the five-minute tour of the simulator API (internal/sim).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pageseer/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds and runs both systems and writes the comparison to w.
func run(w io.Writer) error {
	// A laptop-scale configuration: 1/128 of the paper's memory system.
	cfg := sim.DefaultConfig()
	cfg.Workload = "miniFE" // any Table III name; see workload.AllWorkloadNames()
	cfg.Scheme = sim.SchemePageSeer
	cfg.InstrPerCore = 1_000_000
	cfg.Warmup = 500_000

	sys, err := sim.Build(cfg)
	if err != nil {
		return err
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}

	dram, nvm, buf := res.ServiceBreakdown()
	fmt.Fprintf(w, "workload %s on %d cores under %s\n", res.Workload, res.Cores, res.Scheme)
	fmt.Fprintf(w, "  IPC    %.3f\n", res.IPC)
	fmt.Fprintf(w, "  AMMAT  %.1f CPU cycles\n", res.AMMAT)
	fmt.Fprintf(w, "  served from DRAM %.1f%%, NVM %.1f%%, swap buffers %.1f%%\n",
		dram*100, nvm*100, buf*100)
	fmt.Fprintf(w, "  swaps  %.3f per kilo-instruction\n", res.SwapsPerKI)

	// Compare against running the same workload with no management at all.
	cfg.Scheme = sim.SchemeStatic
	sys2, err := sim.Build(cfg)
	if err != nil {
		return err
	}
	base, err := sys2.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nno-swap baseline: IPC %.3f, AMMAT %.1f\n", base.IPC, base.AMMAT)
	if base.IPC > 0 {
		fmt.Fprintf(w, "PageSeer speedup over static placement: %+.1f%%\n", (res.IPC/base.IPC-1)*100)
	}
	return nil
}
