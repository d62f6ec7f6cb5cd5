package figures

import (
	"errors"
	"fmt"
	"strings"

	"pageseer/internal/obs"
	"pageseer/internal/obs/pagemap"
	"pageseer/internal/sim"
)

// ChurnRow is one (workload, scheme) run's address-space telemetry digest:
// hot-set sizes, swap churn, flap counts, NVM wear, and the top-churn page
// leaderboard the pagemap produced for that run. Scheme is the display label
// (the same one progress lines use).
type ChurnRow struct {
	Workload string          `json:"workload"`
	Scheme   string          `json:"scheme"`
	Summary  pagemap.Summary `json:"summary"`
}

// ErrNoPageMap rejects churn aggregation over a campaign that ran without
// the pagemap: every digest would be zero and the table would silently
// report a churn-free campaign.
var ErrNoPageMap = errors.New("figures: churn requires Config.Obs.PageMap (campaign ran without the pagemap)")

// ChurnTable collects the per-run pagemap digests over the campaign's
// workloads for the Figure 14 comparison schemes (static never swaps, so its
// churn row would be all residency and no motion). It draws on the same
// cached runs the figures use, so adding it to a campaign costs no extra
// simulation.
func ChurnTable(r *Runner) ([]ChurnRow, error) {
	if !r.opts.Config.Obs.PageMap {
		return nil, ErrNoPageMap
	}
	var rows []ChurnRow
	err := r.eachRun(schemes3, func(wl string, sch sim.Scheme, res sim.Results) {
		rows = append(rows, ChurnRow{Workload: wl, Scheme: string(sch), Summary: res.PageMap})
	})
	return rows, err
}

// RenderChurn renders the address-space churn table: working-set and hot-set
// sizes, swap traffic, flap and wasted-swap counts, and NVM wear, with the
// hottest churner called out per row.
func RenderChurn(rows []ChurnRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Churn: address-space telemetry (pages = swap units)")
	fmt.Fprintf(&b, "  %-12s %-10s %7s %6s %6s %6s %7s %7s %5s %5s %6s %8s  %s\n",
		"", "", "pages", "hot50", "hot90", "hot99", "ins", "outs", "flap", "waste", "wear", "dram-res", "top churner")
	for _, r := range rows {
		s := r.Summary
		top := "-"
		if s.TopN > 0 {
			t := s.Top[0]
			top = fmt.Sprintf("%#x (%d in/%d out, %d flaps, %s)",
				t.Page, t.SwapIns, t.SwapOuts, t.FlapEvents, t.Resident)
		}
		fmt.Fprintf(&b, "  %-12s %-10s %7d %6d %6d %6d %7d %7d %5d %5d %6d %8d  %s\n",
			r.Workload, r.Scheme,
			s.UniquePages, s.HotSet50, s.HotSet90, s.HotSet99,
			s.SwapIns, s.SwapOuts, s.FlappingPages, s.WastedSwapPages,
			s.NVMWearWrites, s.ResidentDRAM, top)
	}
	return b.String()
}

// ChurnColumns is the churn table's CSV digest: the scalar fields of
// pagemap.Summary. Its JSON export (obs.WriteJSON) carries the complete
// summary per run, including the reuse-distance log2 histogram and the
// top-churn leaderboard.
var ChurnColumns = obs.Columns[ChurnRow]{
	Header: []string{
		"workload", "scheme", "unique_pages",
		"demand_dram", "demand_nvm", "demand_buf", "demand_pte",
		"reads", "writes", "ff_reads", "ff_writes",
		"nvm_wear_writes", "swap_ins", "swap_outs",
		"ins_regular", "ins_pct", "ins_mmu", "ins_follower",
		"unused_ins", "wasted_swap_pages",
		"round_trips", "flap_events", "flapping_pages",
		"hot50", "hot90", "hot99", "resident_dram",
		"reuse_count", "reuse_mean", "reuse_p50", "reuse_p90", "reuse_p99", "reuse_max",
	},
	Record: func(r ChurnRow) []string {
		s := r.Summary
		rec := []string{r.Workload, r.Scheme, obs.Uint(s.UniquePages)}
		for src := 0; src < int(obs.NumLatSources); src++ {
			rec = append(rec, obs.Uint(s.DemandBySource[src]))
		}
		rec = append(rec,
			obs.Uint(s.Reads), obs.Uint(s.Writes), obs.Uint(s.FFReads), obs.Uint(s.FFWrites),
			obs.Uint(s.NVMWearWrites), obs.Uint(s.SwapIns), obs.Uint(s.SwapOuts))
		for t := 0; t < int(obs.NumTriggers); t++ {
			rec = append(rec, obs.Uint(s.InsByTrigger[t]))
		}
		return append(rec,
			obs.Uint(s.UnusedIns), obs.Uint(s.WastedSwapPages),
			obs.Uint(s.RoundTrips), obs.Uint(s.FlapEvents), obs.Uint(s.FlappingPages),
			obs.Uint(s.HotSet50), obs.Uint(s.HotSet90), obs.Uint(s.HotSet99),
			obs.Uint(s.ResidentDRAM),
			obs.Uint(s.ReuseDist.Count), obs.Float(s.ReuseDist.Mean),
			obs.Uint(s.ReuseDist.P50), obs.Uint(s.ReuseDist.P90), obs.Uint(s.ReuseDist.P99), obs.Uint(s.ReuseDist.Max),
		)
	},
}
