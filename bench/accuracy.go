package main

import (
	"fmt"
	"math"

	"pageseer/internal/sim"
)

type runKey struct {
	profile string
	scheme  sim.Scheme
}

func keyOf(r sim.Results) runKey { return runKey{r.Workload, r.Scheme} }

// sampleErrors joins each sampled run to the detailed run of the same
// profile and scheme (same seed and budgets) and returns the mean relative
// IPC error and the pooled relative swap-rate error, both in percent. A
// sampled run without its detailed reference is an error.
func sampleErrors(sampled []sim.Results, detailed map[runKey]sim.Results) (ipcPct, swapsPct float64, err error) {
	if len(sampled) == 0 {
		return 0, 0, fmt.Errorf("no sampled runs to join")
	}
	var ipcErr, swapDiff, swapRef float64
	for _, s := range sampled {
		d, ok := detailed[keyOf(s)]
		if !ok {
			return 0, 0, fmt.Errorf("no detailed reference for %s/%s", s.Workload, s.Scheme)
		}
		if d.IPC <= 0 {
			return 0, 0, fmt.Errorf("detailed reference for %s/%s has IPC %v", s.Workload, s.Scheme, d.IPC)
		}
		ipcErr += math.Abs(s.IPC-d.IPC) / d.IPC
		swapDiff += math.Abs(s.SwapsPerKI - d.SwapsPerKI)
		swapRef += d.SwapsPerKI
	}
	return 100 * ipcErr / float64(len(sampled)), 100 * ratio(swapDiff, swapRef), nil
}
