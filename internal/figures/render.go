package figures

import (
	"fmt"
	"strings"

	"pageseer/internal/cache"
	"pageseer/internal/core"
	"pageseer/internal/memsim"
	"pageseer/internal/mmu"
	"pageseer/internal/stats"
	"pageseer/internal/workload"
)

// Table1 renders the system configuration (Table I).
func Table1(scale int) string {
	var b strings.Builder
	d := memsim.DRAMConfig()
	n := memsim.NVMConfig()
	l1, l2, l3 := cache.L1Config(), cache.L2Config(), cache.L3Config()
	t1, t2 := mmu.L1TLBConfig(), mmu.L2TLBConfig()
	fmt.Fprintf(&b, "Table I: system configuration (scale 1/%d)\n", scale)
	fmt.Fprintf(&b, "  Cores            4+ out-of-order (workload-defined), 2GHz, 64B lines\n")
	fmt.Fprintf(&b, "  L1/L2/L3         %dKB %d-way %dcyc | %dKB %d-way %dcyc | %dMB %d-way %dcyc shared\n",
		l1.SizeBytes>>10, l1.Ways, l1.LatencyCycles,
		l2.SizeBytes>>10, l2.Ways, l2.LatencyCycles,
		l3.SizeBytes>>20, l3.Ways, l3.LatencyCycles)
	fmt.Fprintf(&b, "  L1/L2 TLB        %de %d-way %dcyc | %de %d-way %dcyc\n",
		t1.Entries, t1.Ways, t1.Latency, t2.Entries, t2.Ways, t2.Latency)
	fmt.Fprintf(&b, "  DRAM             512MB, %dch x %drank x %dbank, tCAS-tRCD-tRAS %d-%d-%d, tRP %d, tWR %d\n",
		d.Channels, d.RanksPerChannel, d.BanksPerRank,
		d.Timing.TCAS, d.Timing.TRCD, d.Timing.TRAS, d.Timing.TRP, d.Timing.TWR)
	fmt.Fprintf(&b, "  NVM              4GB, %dch x %drank x %dbank, tCAS-tRCD-tRAS %d-%d-%d, tRP %d, tWR %d\n",
		n.Channels, n.RanksPerChannel, n.BanksPerRank,
		n.Timing.TCAS, n.Timing.TRCD, n.Timing.TRAS, n.Timing.TRP, n.Timing.TWR)
	fmt.Fprintf(&b, "  Bus              1GHz DDR, 64-bit per channel (timings in memory cycles)\n")
	return b.String()
}

// Table2 renders PageSeer's parameters and Table II energy model.
func Table2(scale int) string {
	cfg := core.DefaultConfig().Scale(scale)
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: PageSeer parameters (scale 1/%d)\n", scale)
	fmt.Fprintf(&b, "  Swap size                    4KB (one page)\n")
	fmt.Fprintf(&b, "  PCTc prefetch swap threshold %d\n", cfg.PCTThreshold)
	fmt.Fprintf(&b, "  HPT swap threshold           %d\n", cfg.HPTThreshold)
	fmt.Fprintf(&b, "  HPT decay interval           %d CPU cycles\n", cfg.HPTDecayInterval)
	fmt.Fprintf(&b, "  PRTc                         %d entries, %d-way, %d-cycle hit\n", cfg.PRTcEntries, cfg.PRTcWays, cfg.PRTcHitLatency)
	fmt.Fprintf(&b, "  PCTc                         %d entries, %d-way, %d-cycle hit\n", cfg.PCTcEntries, cfg.PCTcWays, cfg.PCTcHitLatency)
	fmt.Fprintf(&b, "  HPT (each)                   %d entries, fully associative\n", cfg.HPTEntries)
	fmt.Fprintf(&b, "  Filter                       %d entries, fully associative\n", cfg.FilterEntries)
	fmt.Fprintf(&b, "  MMU Driver                   %d PTE lines, 64B each\n", core.MMUDriverLines)
	fmt.Fprintf(&b, "  PRT in DRAM                  %dKB   PCT in DRAM: %dKB\n", cfg.PRTBytes>>10, cfg.PCTBytes>>10)
	fmt.Fprintf(&b, "  Area/energy per access (from the paper's CACTI analysis):\n")
	for _, e := range stats.TableII() {
		fmt.Fprintf(&b, "    %-7s A=%.1f e-3mm2  L=%.1fmW  R/W=%.1f/%.1f pJ\n",
			e.Name, e.AreaMilli, e.LeakageMW, e.ReadPJ, e.WritePJ)
	}
	return b.String()
}

// Table3 renders the workload table (Table III).
func Table3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: workloads (single-instance footprint)\n")
	ps := workload.Profiles()
	for i := 0; i < len(ps); i += 2 {
		l := ps[i]
		line := fmt.Sprintf("  %-12s x%-2d %4dMB", l.Name, l.Instances, l.FootprintMB)
		if i+1 < len(ps) {
			r := ps[i+1]
			line += fmt.Sprintf("    %-12s x%-2d %4dMB", r.Name, r.Instances, r.FootprintMB)
		}
		fmt.Fprintln(&b, line)
	}
	for _, m := range workload.Mixes() {
		fmt.Fprintf(&b, "  %s: %s\n", m.Name, strings.Join(m.Members[:], "-"))
	}
	return b.String()
}

// RenderFigure7 renders Figure 7 as a text chart.
func RenderFigure7(rows []Figure7Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7: main-memory accesses serviced by DRAM / NVM / swap buffers")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s %-9s |%s| dram=%s nvm=%s buf=%s\n",
			r.Group, r.Scheme, bar(r.DRAM, 30), pct(r.DRAM), pct(r.NVM), pct(r.Buffer))
	}
	return b.String()
}

// RenderFigure8 renders Figure 8.
func RenderFigure8(rows []Figure8Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: positive / negative / neutral main-memory accesses")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s %-9s |%s| pos=%s neg=%s neu=%s\n",
			r.Group, r.Scheme, bar(r.Positive, 30), pct(r.Positive), pct(r.Negative), pct(r.Neutral))
	}
	return b.String()
}

// RenderFigure9 renders Figure 9.
func RenderFigure9(rows []Figure9Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 9: accuracy of PageSeer's prefetch swaps")
	var accs []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s |%s| %s (%d tracked)\n", r.Workload, bar(r.Accuracy, 30), pct(r.Accuracy), r.Tracked)
		if r.Tracked > 0 {
			accs = append(accs, r.Accuracy)
		}
	}
	fmt.Fprintf(&b, "  average (workloads with prefetch swaps): %s\n", pct(stats.Mean(accs)))
	return b.String()
}

// RenderFigure10 renders Figure 10.
func RenderFigure10(rows []Figure10Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 10: swap composition (MMU-triggered / prefetching-triggered / regular)")
	var mmu, pref []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s mmu=%s pct=%s reg=%s (%d swaps)\n",
			r.Workload, pct(r.MMUFrac), pct(r.PrefetchFrac), pct(r.RegularFrac), r.TotalSwaps)
		if r.TotalSwaps > 0 {
			mmu = append(mmu, r.MMUFrac)
			pref = append(pref, r.MMUFrac+r.PrefetchFrac)
		}
	}
	fmt.Fprintf(&b, "  average: prefetch swaps %s of all swaps; MMU-triggered %s\n",
		pct(stats.Mean(pref)), pct(stats.Mean(mmu)))
	return b.String()
}

// RenderFigure11 renders Figure 11.
func RenderFigure11(rows []Figure11Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 11: swaps per kilo-instruction, with vs without the BW heuristic")
	var w, wo []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s w/BW-opt=%.3f  w/o BW-opt=%.3f\n", r.Group, r.WithBW, r.WithoutBW)
		w = append(w, r.WithBW)
		wo = append(wo, r.WithoutBW)
	}
	fmt.Fprintf(&b, "  average: %.3f vs %.3f swaps/Kinstr\n", stats.Mean(w), stats.Mean(wo))
	return b.String()
}

// RenderFigure12 renders Figure 12.
func RenderFigure12(rows []Figure12Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 12: TLB-miss PTE requests missing L2+L3 (and MMU Driver hit rate)")
	var miss, hit []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s pte-miss-rate=%s driver-hit=%s\n",
			r.Workload, pct(r.PTEMissRate), pct(r.MMUDriverHitRate))
		miss = append(miss, r.PTEMissRate)
		hit = append(hit, r.MMUDriverHitRate)
	}
	fmt.Fprintf(&b, "  average: %s of walks reach the HMC; %s served by the MMU Driver\n",
		pct(stats.Mean(miss)), pct(stats.Mean(hit)))
	return b.String()
}

// RenderFigure13 renders Figure 13.
func RenderFigure13(rows []Figure13Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 13: reduction of remap-cache waiting time, PageSeer vs PoM")
	var red []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s reduction=%s (PS %d vs PoM %d cycles)\n",
			r.Workload, pct(r.Reduction), r.PSWaitCycles, r.PoMWait)
		red = append(red, r.Reduction)
	}
	fmt.Fprintf(&b, "  average reduction: %s\n", pct(stats.Mean(red)))
	return b.String()
}

// RenderFigure14 renders Figure 14.
func RenderFigure14(s Figure14Summary) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 14: IPC and AMMAT normalised to MemPod")
	fmt.Fprintf(&b, "  %-12s %10s %10s %12s %12s\n", "workload", "IPC PoM", "IPC PS", "AMMAT PoM", "AMMAT PS")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "  %-12s %10.3f %10.3f %12.3f %12.3f\n",
			r.Workload, r.IPCPoM, r.IPCPageSeer, r.AMMATPoM, r.AMMATPageSeer)
	}
	fmt.Fprintf(&b, "  geomean IPC:   PoM %.3f   PageSeer %.3f  (PS vs PoM: %+.1f%%, PS vs MemPod: %+.1f%%)\n",
		s.GeoIPCPoM, s.GeoIPCPageSeer, (s.IPCvsPoM-1)*100, (s.IPCvsMemPod-1)*100)
	fmt.Fprintf(&b, "  geomean AMMAT: PoM %.3f   PageSeer %.3f  (PS vs PoM: %+.1f%%, PS vs MemPod: %+.1f%%)\n",
		s.GeoAMMATPoM, s.GeoAMMATPageSeer, (s.AMMATvsPoM-1)*100, (s.AMMATvsMemPod-1)*100)
	return b.String()
}

// RenderAblation renders the Section V-C study.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Section V-C: PageSeer vs PageSeer-NoCorr (speedup of full PageSeer)")
	var sp []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %+.1f%%\n", r.Workload, (r.Speedup-1)*100)
		sp = append(sp, r.Speedup)
	}
	fmt.Fprintf(&b, "  geomean: %+.1f%%\n", (stats.GeoMean(sp)-1)*100)
	return b.String()
}
