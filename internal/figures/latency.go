package figures

import (
	"fmt"
	"strings"

	"pageseer/internal/obs"
	"pageseer/internal/sim"
)

// LatencyRow is one workload's per-source HMC service-latency digest under
// PageSeer (from the always-on latency histograms in Results.Latency).
type LatencyRow struct {
	Workload string
	Latency  obs.LatencySummary
}

// LatencyTable collects the latency digests over the campaign's workloads.
// It draws on the same cached PageSeer runs the figures use, so adding it
// to a campaign costs no extra simulation.
func LatencyTable(r *Runner) ([]LatencyRow, error) {
	var rows []LatencyRow
	err := r.each(r.opts.Workloads, []Key{{Scheme: sim.SchemePageSeer}}, func(wl string, res []sim.Results) {
		rows = append(rows, LatencyRow{Workload: wl, Latency: res[0].Latency})
	})
	return rows, err
}

// RenderLatencyTable renders the per-source latency percentiles.
func RenderLatencyTable(rows []LatencyRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Latency: HMC service latency by source, cycles (p50/p99, PageSeer)")
	fmt.Fprintf(&b, "  %-12s %16s %16s %16s %16s\n", "", "DRAM", "NVM", "swap-buf", "pte-cache")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %16s %16s %16s %16s\n", r.Workload,
			latCell(r.Latency.DRAM), latCell(r.Latency.NVM),
			latCell(r.Latency.Buf), latCell(r.Latency.PTE))
	}
	return b.String()
}

func latCell(d obs.Dist) string {
	if d.Count == 0 {
		return "—"
	}
	return fmt.Sprintf("%d/%d", d.P50, d.P99)
}
