package figures

import (
	"fmt"
	"strings"

	"pageseer/internal/sim"
	"pageseer/internal/stats"
)

// schemes3 is Figure 7/8/14's comparison set, in the paper's bar order.
var schemes3 = []sim.Scheme{sim.SchemePoM, sim.SchemeMemPod, sim.SchemePageSeer}

// Figure7Row is one bar of Figure 7: the fraction of main-memory accesses
// serviced by DRAM, NVM and the swap buffers.
type Figure7Row struct {
	Group  string // suite or workload
	Scheme sim.Scheme
	DRAM   float64
	NVM    float64
	Buffer float64
}

// Figure7 builds the service-source breakdown per suite.
func Figure7(r *Runner) ([]Figure7Row, error) {
	var rows []Figure7Row
	err := suiteBars(r, sim.Results.ServiceBreakdown, func(suite string, sch sim.Scheme, d, n, b float64) {
		rows = append(rows, Figure7Row{Group: suite, Scheme: sch, DRAM: d, NVM: n, Buffer: b})
	})
	return rows, err
}

// suiteBars averages a three-way split of each run over a suite's
// workloads, one bar per (suite, scheme) for the schemes of Figures 7 and
// 8. A failed run leaves the mean; a bar with no run left is a gap.
func suiteBars(r *Runner, split func(sim.Results) (float64, float64, float64),
	bar func(suite string, sch sim.Scheme, a, b, c float64)) error {
	return r.eachSuite(func(suite string, wls []string) error {
		for _, sch := range schemes3 {
			var a, b, c []float64
			if err := r.each(wls, []Key{{Scheme: sch}}, func(_ string, res []sim.Results) {
				x, y, z := split(res[0])
				a, b, c = append(a, x), append(b, y), append(c, z)
			}); err != nil {
				return err
			}
			if len(a) > 0 {
				bar(suite, sch, stats.Mean(a), stats.Mean(b), stats.Mean(c))
			}
		}
		return nil
	})
}

// Figure8Row is one bar of Figure 8: positive/negative/neutral accesses.
type Figure8Row struct {
	Group    string
	Scheme   sim.Scheme
	Positive float64
	Negative float64
	Neutral  float64
}

// Figure8 builds the swap-effectiveness breakdown per suite.
func Figure8(r *Runner) ([]Figure8Row, error) {
	var rows []Figure8Row
	err := suiteBars(r, sim.Results.AccessEffectiveness, func(suite string, sch sim.Scheme, p, n, u float64) {
		rows = append(rows, Figure8Row{Group: suite, Scheme: sch, Positive: p, Negative: n, Neutral: u})
	})
	return rows, err
}

// Figure9Row is one bar of Figure 9: prefetch-swap accuracy per workload.
type Figure9Row struct {
	Workload string
	Accuracy float64
	Tracked  uint64
}

// Figure9 builds prefetch-swap accuracy for PageSeer.
func Figure9(r *Runner) ([]Figure9Row, error) {
	var rows []Figure9Row
	err := r.each(r.opts.Workloads, []Key{{Scheme: sim.SchemePageSeer}}, func(wl string, res []sim.Results) {
		rows = append(rows, Figure9Row{Workload: wl, Accuracy: res[0].PrefetchAccuracy, Tracked: res[0].PS.PrefetchTracked})
	})
	return rows, err
}

// Figure10Row is one bar of Figure 10: the composition of PageSeer's swaps.
type Figure10Row struct {
	Workload     string
	MMUFrac      float64 // MMU-triggered prefetch swaps
	PrefetchFrac float64 // prefetching-triggered prefetch swaps
	RegularFrac  float64
	TotalSwaps   uint64
}

// Figure10 builds the swap-kind composition.
func Figure10(r *Runner) ([]Figure10Row, error) {
	var rows []Figure10Row
	err := r.each(r.opts.Workloads, []Key{{Scheme: sim.SchemePageSeer}}, func(wl string, res []sim.Results) {
		ps := res[0].PS
		tot := ps.TotalSwaps()
		row := Figure10Row{Workload: wl, TotalSwaps: tot}
		if tot > 0 {
			row.RegularFrac = float64(ps.SwapsCompleted[0]) / float64(tot)
			row.PrefetchFrac = float64(ps.SwapsCompleted[1]) / float64(tot)
			row.MMUFrac = float64(ps.SwapsCompleted[2]) / float64(tot)
		}
		rows = append(rows, row)
	})
	return rows, err
}

// Figure11Row is one group of Figure 11: swaps per kilo-instruction with
// and without the Swap Driver's bandwidth heuristic.
type Figure11Row struct {
	Group     string
	WithBW    float64
	WithoutBW float64
}

// Figure11 builds the swap-rate comparison per suite. A workload whose pair
// is incomplete leaves both means.
func Figure11(r *Runner) ([]Figure11Row, error) {
	var rows []Figure11Row
	pair := []Key{{Scheme: sim.SchemePageSeer}, {Scheme: sim.SchemePageSeer, DisableBW: true}}
	err := r.eachSuite(func(suite string, wls []string) error {
		var with, without []float64
		if err := r.each(wls, pair, func(_ string, res []sim.Results) {
			with = append(with, res[0].SwapsPerKI)
			without = append(without, res[1].SwapsPerKI)
		}); err != nil {
			return err
		}
		if len(with) > 0 {
			rows = append(rows, Figure11Row{Group: suite, WithBW: stats.Mean(with), WithoutBW: stats.Mean(without)})
		}
		return nil
	})
	return rows, err
}

// Figure12Row is one bar of Figure 12 plus the Section V-B MMU Driver
// hit-rate claim.
type Figure12Row struct {
	Workload         string
	PTEMissRate      float64 // TLB-miss PTE requests that missed L2+L3
	MMUDriverHitRate float64 // of those, served by the MMU Driver
}

// Figure12 builds page-walk statistics for PageSeer.
func Figure12(r *Runner) ([]Figure12Row, error) {
	var rows []Figure12Row
	err := r.each(r.opts.Workloads, []Key{{Scheme: sim.SchemePageSeer}}, func(wl string, res []sim.Results) {
		rows = append(rows, Figure12Row{Workload: wl, PTEMissRate: res[0].PTEMissRate(), MMUDriverHitRate: res[0].MMUDriverHitRate()})
	})
	return rows, err
}

// Figure13Row is one bar of Figure 13: reduction of total PRTc waiting time
// in PageSeer relative to PoM's SRC.
type Figure13Row struct {
	Workload     string
	Reduction    float64 // 1 - PS/PoM (positive = PageSeer waits less)
	PSWaitCycles uint64
	PoMWait      uint64
}

// Figure13 builds the remap-cache waiting-time comparison.
func Figure13(r *Runner) ([]Figure13Row, error) {
	var rows []Figure13Row
	err := r.each(r.opts.Workloads, []Key{{Scheme: sim.SchemePageSeer}, {Scheme: sim.SchemePoM}}, func(wl string, res []sim.Results) {
		ps, pom := res[0].RemapCache.WaitCycles, res[1].RemapCache.WaitCycles
		red := 0.0
		if pom > 0 {
			red = 1 - float64(ps)/float64(pom)
		}
		rows = append(rows, Figure13Row{Workload: wl, Reduction: red, PSWaitCycles: ps, PoMWait: pom})
	})
	return rows, err
}

// Figure14Row is one workload of Figure 14: IPC and AMMAT of PoM and
// PageSeer normalised to MemPod.
type Figure14Row struct {
	Workload      string
	IPCPoM        float64
	IPCPageSeer   float64
	AMMATPoM      float64
	AMMATPageSeer float64
}

// Figure14Summary aggregates the headline claims.
type Figure14Summary struct {
	Rows []Figure14Row
	// Geometric means of the normalised metrics.
	GeoIPCPoM, GeoIPCPageSeer     float64
	GeoAMMATPoM, GeoAMMATPageSeer float64
	// Headline ratios: PageSeer vs PoM and vs MemPod.
	IPCvsPoM, IPCvsMemPod     float64
	AMMATvsPoM, AMMATvsMemPod float64
}

// Figure14 builds the headline comparison. Normalisation needs the full
// triple, so a workload with a failed run is left out.
func Figure14(r *Runner) (Figure14Summary, error) {
	var out Figure14Summary
	var ipcP, ipcS, amP, amS []float64
	triple := []Key{{Scheme: sim.SchemeMemPod}, {Scheme: sim.SchemePoM}, {Scheme: sim.SchemePageSeer}}
	err := r.each(r.opts.Workloads, triple, func(wl string, res []sim.Results) {
		mp, pom, ps := res[0], res[1], res[2]
		row := Figure14Row{Workload: wl}
		if mp.IPC > 0 {
			row.IPCPoM = pom.IPC / mp.IPC
			row.IPCPageSeer = ps.IPC / mp.IPC
		}
		if mp.AMMAT > 0 {
			row.AMMATPoM = pom.AMMAT / mp.AMMAT
			row.AMMATPageSeer = ps.AMMAT / mp.AMMAT
		}
		out.Rows = append(out.Rows, row)
		ipcP = append(ipcP, row.IPCPoM)
		ipcS = append(ipcS, row.IPCPageSeer)
		amP = append(amP, row.AMMATPoM)
		amS = append(amS, row.AMMATPageSeer)
	})
	if err != nil {
		return out, err
	}
	out.GeoIPCPoM = stats.GeoMean(ipcP)
	out.GeoIPCPageSeer = stats.GeoMean(ipcS)
	out.GeoAMMATPoM = stats.GeoMean(amP)
	out.GeoAMMATPageSeer = stats.GeoMean(amS)
	if out.GeoIPCPoM > 0 {
		out.IPCvsPoM = out.GeoIPCPageSeer / out.GeoIPCPoM
	}
	out.IPCvsMemPod = out.GeoIPCPageSeer
	if out.GeoAMMATPoM > 0 {
		out.AMMATvsPoM = out.GeoAMMATPageSeer / out.GeoAMMATPoM
	}
	out.AMMATvsMemPod = out.GeoAMMATPageSeer
	return out, nil
}

// AblationRow is one workload of the Section V-C study.
type AblationRow struct {
	Workload string
	// Speedup of full PageSeer over PageSeer-NoCorr (>1: correlation helps).
	Speedup float64
}

// Ablation builds the PageSeer vs PageSeer-NoCorr comparison.
func Ablation(r *Runner) ([]AblationRow, error) {
	var rows []AblationRow
	err := r.each(r.opts.Workloads, []Key{{Scheme: sim.SchemePageSeer}, {Scheme: sim.SchemePageSeerNoCorr}}, func(wl string, res []sim.Results) {
		sp := 0.0
		if res[1].IPC > 0 {
			sp = res[0].IPC / res[1].IPC
		}
		rows = append(rows, AblationRow{Workload: wl, Speedup: sp})
	})
	return rows, err
}

// bar renders a crude ASCII bar for text figures.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%5.1f%%", f*100) }
