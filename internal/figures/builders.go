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
	groups := r.groupBySuite()
	for _, suite := range suiteOrder {
		wls := groups[suite]
		if len(wls) == 0 {
			continue
		}
		for _, sch := range schemes3 {
			var d, n, b []float64
			for _, wl := range wls {
				res, ok, err := r.runs(wl, Key{Scheme: sch})
				if err != nil {
					return nil, err
				}
				if !ok {
					continue // failed run: drop it from the suite mean
				}
				dd, nn, bb := res[0].ServiceBreakdown()
				d = append(d, dd)
				n = append(n, nn)
				b = append(b, bb)
			}
			if len(d) == 0 {
				continue // every run of the bar failed: leave a gap
			}
			rows = append(rows, Figure7Row{
				Group: suite, Scheme: sch,
				DRAM: stats.Mean(d), NVM: stats.Mean(n), Buffer: stats.Mean(b),
			})
		}
	}
	return rows, nil
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
	groups := r.groupBySuite()
	for _, suite := range suiteOrder {
		wls := groups[suite]
		if len(wls) == 0 {
			continue
		}
		for _, sch := range schemes3 {
			var p, n, u []float64
			for _, wl := range wls {
				res, ok, err := r.runs(wl, Key{Scheme: sch})
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				pp, nn, uu := res[0].AccessEffectiveness()
				p = append(p, pp)
				n = append(n, nn)
				u = append(u, uu)
			}
			if len(p) == 0 {
				continue
			}
			rows = append(rows, Figure8Row{
				Group: suite, Scheme: sch,
				Positive: stats.Mean(p), Negative: stats.Mean(n), Neutral: stats.Mean(u),
			})
		}
	}
	return rows, nil
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
	for _, wl := range r.opts.Workloads {
		ps, ok, err := r.runs(wl, Key{Scheme: sim.SchemePageSeer})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		rows = append(rows, Figure9Row{
			Workload: wl,
			Accuracy: ps[0].PrefetchAccuracy,
			Tracked:  ps[0].PS.PrefetchTracked,
		})
	}
	return rows, nil
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
	for _, wl := range r.opts.Workloads {
		ps, ok, err := r.runs(wl, Key{Scheme: sim.SchemePageSeer})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		res := ps[0]
		tot := res.PS.TotalSwaps()
		row := Figure10Row{Workload: wl, TotalSwaps: tot}
		if tot > 0 {
			row.RegularFrac = float64(res.PS.SwapsCompleted[0]) / float64(tot)
			row.PrefetchFrac = float64(res.PS.SwapsCompleted[1]) / float64(tot)
			row.MMUFrac = float64(res.PS.SwapsCompleted[2]) / float64(tot)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure11Row is one group of Figure 11: swaps per kilo-instruction with
// and without the Swap Driver's bandwidth heuristic.
type Figure11Row struct {
	Group     string
	WithBW    float64
	WithoutBW float64
}

// Figure11 builds the swap-rate comparison per suite.
func Figure11(r *Runner) ([]Figure11Row, error) {
	var rows []Figure11Row
	groups := r.groupBySuite()
	for _, suite := range suiteOrder {
		wls := groups[suite]
		if len(wls) == 0 {
			continue
		}
		var with, without []float64
		for _, wl := range wls {
			res, ok, err := r.runs(wl, Key{Scheme: sim.SchemePageSeer}, Key{Scheme: sim.SchemePageSeer, DisableBW: true})
			if err != nil {
				return nil, err
			}
			if !ok {
				continue // keep the pair together: drop the workload
			}
			with = append(with, res[0].SwapsPerKI)
			without = append(without, res[1].SwapsPerKI)
		}
		if len(with) == 0 {
			continue
		}
		rows = append(rows, Figure11Row{Group: suite, WithBW: stats.Mean(with), WithoutBW: stats.Mean(without)})
	}
	return rows, nil
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
	for _, wl := range r.opts.Workloads {
		ps, ok, err := r.runs(wl, Key{Scheme: sim.SchemePageSeer})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		rows = append(rows, Figure12Row{
			Workload:         wl,
			PTEMissRate:      ps[0].PTEMissRate(),
			MMUDriverHitRate: ps[0].MMUDriverHitRate(),
		})
	}
	return rows, nil
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
	for _, wl := range r.opts.Workloads {
		res, ok, err := r.runs(wl, Key{Scheme: sim.SchemePageSeer}, Key{Scheme: sim.SchemePoM})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		ps, pom := res[0], res[1]
		red := 0.0
		if pom.RemapCache.WaitCycles > 0 {
			red = 1 - float64(ps.RemapCache.WaitCycles)/float64(pom.RemapCache.WaitCycles)
		}
		rows = append(rows, Figure13Row{
			Workload:     wl,
			Reduction:    red,
			PSWaitCycles: ps.RemapCache.WaitCycles,
			PoMWait:      pom.RemapCache.WaitCycles,
		})
	}
	return rows, nil
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

// Figure14 builds the headline comparison.
func Figure14(r *Runner) (Figure14Summary, error) {
	var out Figure14Summary
	var ipcP, ipcS, amP, amS []float64
	for _, wl := range r.opts.Workloads {
		res, ok, err := r.runs(wl, Key{Scheme: sim.SchemeMemPod}, Key{Scheme: sim.SchemePoM}, Key{Scheme: sim.SchemePageSeer})
		if err != nil {
			return out, err
		}
		if !ok {
			continue // normalisation needs the full triple: drop the workload
		}
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
	for _, wl := range r.opts.Workloads {
		res, ok, err := r.runs(wl, Key{Scheme: sim.SchemePageSeer}, Key{Scheme: sim.SchemePageSeerNoCorr})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		full, nc := res[0], res[1]
		sp := 0.0
		if nc.IPC > 0 {
			sp = full.IPC / nc.IPC
		}
		rows = append(rows, AblationRow{Workload: wl, Speedup: sp})
	}
	return rows, nil
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
