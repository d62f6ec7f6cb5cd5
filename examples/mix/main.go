// Mix: reproduce the paper's multi-programmed scenario — four different
// benchmarks sharing one hybrid memory system — and compare how each
// management scheme handles the competition for DRAM.
//
// This is the workload class where the PCT's per-PID tracking matters: the
// controller must not correlate pages across processes (Section III-C2).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pageseer/internal/sim"
	"pageseer/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the mix under each scheme and writes the table to w.
func run(w io.Writer) error {
	const mix = "mix6" // libquantum-lbm-mcf-bwaves, the most memory-hungry mix

	fmt.Fprintf(w, "running %s (%s suite) under four schemes\n\n", mix, workload.Suite(mix))
	fmt.Fprintf(w, "%-16s %8s %10s %8s %8s %8s\n", "scheme", "IPC", "AMMAT", "DRAM%", "NVM%", "pos%")

	type outcome struct {
		scheme sim.Scheme
		ipc    float64
	}
	var outcomes []outcome
	for _, scheme := range []sim.Scheme{
		sim.SchemeStatic,
		sim.SchemeMemPod,
		sim.SchemePoM,
		sim.SchemePageSeer,
	} {
		cfg := sim.DefaultConfig()
		cfg.Workload = mix
		cfg.Scheme = scheme
		sys, err := sim.Build(cfg)
		if err != nil {
			return err
		}
		res, err := sys.Run()
		if err != nil {
			return err
		}
		d, n, _ := res.ServiceBreakdown()
		pos, _, _ := res.AccessEffectiveness()
		fmt.Fprintf(w, "%-16s %8.3f %10.1f %7.1f%% %7.1f%% %7.1f%%\n",
			scheme, res.IPC, res.AMMAT, d*100, n*100, pos*100)
		outcomes = append(outcomes, outcome{scheme, res.IPC})
	}

	best := outcomes[0]
	for _, o := range outcomes[1:] {
		if o.ipc > best.ipc {
			best = o
		}
	}
	fmt.Fprintf(w, "\nbest scheme for %s: %s\n", mix, best.scheme)
	return nil
}
