package figures

import (
	"errors"
	"fmt"
	"strings"

	"pageseer/internal/obs"
	"pageseer/internal/obs/ledger"
	"pageseer/internal/sim"
)

// EffectivenessRow is one (workload, scheme) run's swap-provenance digest:
// the trigger mix, payoff and waste accounting the ledger produced for that
// run. Scheme is the display label (the same one progress lines use).
type EffectivenessRow struct {
	Workload string         `json:"workload"`
	Scheme   string         `json:"scheme"`
	Summary  ledger.Summary `json:"summary"`
}

// ErrNoLedger rejects effectiveness aggregation over a campaign that ran
// without the swap-provenance ledger: every summary would be zero and the
// table would silently report a perfectly wasteless campaign.
var ErrNoLedger = errors.New("figures: effectiveness requires Config.Obs.Ledger (campaign ran without the swap-provenance ledger)")

// EffectivenessTable collects the per-run effectiveness digests over the
// campaign's workloads for the Figure 14 comparison schemes. It draws on
// the same cached runs the figures use, so adding it to a campaign costs no
// extra simulation.
func EffectivenessTable(r *Runner) ([]EffectivenessRow, error) {
	if !r.opts.Config.Obs.Ledger {
		return nil, ErrNoLedger
	}
	var rows []EffectivenessRow
	err := r.eachRun(schemes3, func(wl string, sch sim.Scheme, res sim.Results) {
		rows = append(rows, EffectivenessRow{Workload: wl, Scheme: string(sch), Summary: res.Effectiveness})
	})
	return rows, err
}

// RenderEffectiveness renders the swap-provenance table: per-trigger swap
// mix (started/useful), accuracy, coverage, late swaps, and wasted transfer
// bytes.
func RenderEffectiveness(rows []EffectivenessRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Effectiveness: swap provenance by trigger (started:useful per class)")
	fmt.Fprintf(&b, "  %-12s %-10s %11s %11s %11s %11s %6s %6s %5s %9s\n",
		"", "", "regular", "pct", "mmu", "follower", "acc", "cov", "late", "wasteMB")
	for _, r := range rows {
		s := r.Summary
		cell := func(t obs.Trigger) string {
			return fmt.Sprintf("%d:%d", s.Started[t], s.Useful[t])
		}
		waste := float64(s.WastedDRAMBytes+s.WastedNVMBytes) / (1 << 20)
		fmt.Fprintf(&b, "  %-12s %-10s %11s %11s %11s %11s %s %s %5d %9.2f\n",
			r.Workload, r.Scheme,
			cell(obs.TrigRegular), cell(obs.TrigPCT),
			cell(obs.TrigMMU), cell(obs.TrigFollower),
			pct(s.Accuracy), pct(s.Coverage), s.Late, waste)
	}
	return b.String()
}

// EffectivenessColumns is the effectiveness table's CSV digest: the scalar
// fields of ledger.Summary. Its JSON export (obs.WriteJSON) carries the
// complete summary per run, including the log2 lead-time histogram.
var EffectivenessColumns = obs.Columns[EffectivenessRow]{
	Header: []string{
		"workload", "scheme",
		"started_regular", "started_pct", "started_mmu", "started_follower",
		"useful_regular", "useful_pct", "useful_mmu", "useful_follower",
		"unused_regular", "unused_pct", "unused_mmu", "unused_follower",
		"open_regular", "open_pct", "open_mmu", "open_follower",
		"late", "accuracy", "coverage",
		"demand_total", "demand_covered",
		"wasted_dram_bytes", "wasted_nvm_bytes",
		"lead_count", "lead_mean", "lead_p50", "lead_p90", "lead_p99", "lead_max",
	},
	Record: func(r EffectivenessRow) []string {
		s := r.Summary
		rec := []string{r.Workload, r.Scheme}
		for _, arr := range [][obs.NumTriggers]uint64{s.Started, s.Useful, s.Unused, s.Open} {
			for t := 0; t < int(obs.NumTriggers); t++ {
				rec = append(rec, obs.Uint(arr[t]))
			}
		}
		return append(rec,
			obs.Uint(s.Late), obs.Float(s.Accuracy), obs.Float(s.Coverage),
			obs.Uint(s.DemandTotal), obs.Uint(s.DemandCovered),
			obs.Uint(s.WastedDRAMBytes), obs.Uint(s.WastedNVMBytes),
			obs.Uint(s.LeadTime.Count), obs.Float(s.LeadTime.Mean),
			obs.Uint(s.LeadTime.P50), obs.Uint(s.LeadTime.P90), obs.Uint(s.LeadTime.P99), obs.Uint(s.LeadTime.Max),
		)
	},
}
