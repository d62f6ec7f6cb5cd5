// Command pageseer-sim runs hybrid-memory simulations and prints a
// detailed report per run: performance, service breakdown, swap activity,
// page-walk statistics, and the Table II energy estimate.
//
// -workload accepts one name, a comma-separated list, or "all"; with more
// than one workload the runs fan out across -j workers (each run stays
// single-threaded and deterministic) and reports print in argument order.
//
// -sample N switches a run to SMARTS-style sampled execution: the measured
// region is split into N strides, each fast-forwarded functionally (caches,
// TLBs, hot-page tables, and the page remap stay warm; no events, no
// timing) up to a -sample-warmup-instruction detailed warm-up (discarded)
// and a -sample-window-instruction detailed measurement window. Results are
// extrapolated from the windows and the report gains a "sampling:" line
// with the geometry and the per-window IPC dispersion. Sampling trades
// accuracy for wall-clock: see EXPERIMENTS.md for a speedup-vs-error sweep.
//
// Observability: -effectiveness attaches the swap-provenance ledger and
// prints the per-trigger swap mix, accuracy/coverage, wasted transfer
// bytes, and MMU-hint lead times; -cpi attaches the cycle-attribution layer
// and prints a per-run CPI-stack table (export it with -cpi-csv/-cpi-json);
// -fault adds a "faults:" line counting what the injector forced, and
// -audit a "watchdog:" line with the liveness watchdog's samples; -trace
// writes swap-lifecycle spans and MMU-hint causality arrows in Chrome Trace Event
// Format (open in Perfetto or chrome://tracing); -timeline samples IPC,
// swap activity, and queue occupancy every -timeline-every cycles into CSV
// (or JSON when the path ends in .json).
// With multiple workloads each run writes its own file, the workload name
// inserted before the extension (trace.json -> trace-lbm.json).
//
// Every run goes through the same figures.Runner paper-figures uses, so
// -j, -run-timeout and the signal handling behave alike in both commands.
// The first SIGINT lets in-flight runs finish and starts no more; runs are
// deterministic, so rerunning the same command repeats the invocation.
//
// Usage:
//
//	pageseer-sim -workload lbm -scheme pageseer
//	pageseer-sim -workload mix3 -scheme pom -scale 64 -instr 4000000
//	pageseer-sim -workload GemsFDTD -scheme pageseer -nobw
//	pageseer-sim -workload GemsFDTD -sample 16 -sample-window 1000 -sample-warmup 1000
//	pageseer-sim -workload all -j 8
//	pageseer-sim -workload lbm -trace trace.json -timeline tl.csv
//	pageseer-sim -workload GemsFDTD -cpi -cpi-csv cpi.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pageseer/internal/check"
	"pageseer/internal/cli"
	"pageseer/internal/figures"
	"pageseer/internal/obs"
	"pageseer/internal/obs/pagemap"
	"pageseer/internal/sim"
	"pageseer/internal/stats"
	"pageseer/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns its exit status: 0 on success, 1
// when a run failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pageseer-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	common := cli.Register(fs)
	var (
		wl     = fs.String("workload", "lbm", `Table III workload name(s), comma-separated, or "all"`)
		scheme = fs.String("scheme", "pageseer", "pageseer | pageseer-nocorr | pom | mempod | static")
		nobw   = fs.Bool("nobw", false, "disable the Swap Driver bandwidth heuristic")
		list   = fs.Bool("list", false, "list workloads and exit")

		cpi       = fs.Bool("cpi", false, "attach cycle attribution and print the CPI-stack table")
		cpiCSV    = fs.String("cpi-csv", "", "write the CPI stacks to this CSV file (implies -cpi)")
		cpiJSON   = fs.String("cpi-json", "", "write the CPI stacks (with per-trigger-class splits) to this JSON file (implies -cpi)")
		pagemapOn = fs.Bool("pagemap", false, "attach the per-page telemetry table and print its digest (hot sets, churn, flaps, NVM wear)")
		files     runFiles
		tlEvery   = fs.Uint64("timeline-every", 50_000, "timeline sampling interval in cycles")
	)
	fs.StringVar(&files.pmCSV, "pagemap-csv", "", "write the full per-page table to this CSV file (implies -pagemap)")
	fs.StringVar(&files.pmJSON, "pagemap-json", "", "write the full per-page table to this JSON file (implies -pagemap)")
	fs.BoolVar(&files.pm2MB, "pagemap-2mb", false, "roll the -pagemap-csv/-json export up into 2MB extents instead of per-page rows")
	fs.StringVar(&files.trace, "trace", "", "write a Chrome/Perfetto trace of swap lifecycles and MMU hints to this file")
	fs.StringVar(&files.timeline, "timeline", "", "write the epoch timeline to this file (.json = JSON, otherwise CSV)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := sim.DefaultConfig()
	if err := common.ApplyConfig(&cfg); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	if files.timeline != "" && *tlEvery == 0 {
		fmt.Fprintln(stderr, "error: -timeline needs a positive -timeline-every")
		return 2
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	defer stopProfiles()

	if *list {
		for _, w := range workload.AllWorkloadNames() {
			fmt.Fprintf(stdout, "%-12s (%s)\n", w, workload.Suite(w))
		}
		return 0
	}

	wls := strings.Split(*wl, ",")
	if *wl == "all" {
		wls = workload.AllWorkloadNames()
	}
	files.multi = len(wls) > 1

	cfg.Obs.Trace = files.trace != ""
	if *cpiCSV != "" || *cpiJSON != "" {
		*cpi = true
	}
	cfg.Obs.Ledger = common.Effectiveness
	cfg.Obs.CPI = *cpi
	cfg.Obs.PageMap = *pagemapOn || files.pmCSV != "" || files.pmJSON != ""
	if files.timeline != "" {
		cfg.Obs.TimelineEvery = *tlEvery
	}

	// Each run's configuration is checked before any run starts, so an
	// unknown -scheme or workload name is a usage error like any other bad
	// flag value.
	keys := make([]figures.Key, len(wls))
	for i, w := range wls {
		keys[i] = figures.Key{Workload: w, Scheme: sim.Scheme(*scheme), DisableBW: *nobw}
		if err := keys[i].Config(cfg).Validate(); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
	}
	s := common.Open(figures.Options{Config: cfg, Workloads: wls}, stderr)
	var sink func(*sim.System) error
	if files.any() {
		sink = files.write
	}
	results, errs := s.Runner.RunKeys(keys, sink)

	// Reports print in argument order, successes to stdout; a failed run's
	// *RunError is listed with its crashdump by Finish, and runs a signal
	// kept from starting by its stop message, so only other errors print
	// here.
	failed := false
	for i := range wls {
		if err := errs[i]; err != nil {
			var re *sim.RunError
			if !errors.Is(err, figures.ErrStopped) && !errors.As(err, &re) {
				fmt.Fprintln(stderr, "error:", err)
				failed = true
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, report(cfg, results[i], common.Effectiveness))
	}

	// The CPI-stack table aggregates the successful runs (argument order)
	// after the per-run reports, like paper-figures prints its tables after
	// the figures.
	if *cpi {
		var rows []figures.CPIStackRow
		for i, k := range keys {
			if errs[i] == nil {
				rows = append(rows, figures.CPIStackRow{
					Workload:     k.Workload,
					Scheme:       k.Label(),
					Instructions: results[i].Instructions,
					Stack:        results[i].CPIStack,
				})
			}
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, figures.RenderCPIStack(rows))
		if err := cli.WriteTable(rows, figures.CPIStackColumns, *cpiCSV, *cpiJSON); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			failed = true
		}
	}
	return s.Finish(failed)
}

// runFiles names one invocation's per-run output files; with several
// workloads each run's names get the workload inserted (see outPath).
type runFiles struct {
	trace, timeline string
	pmCSV, pmJSON   string
	pm2MB           bool
	multi           bool
}

func (f runFiles) any() bool {
	return f.trace != "" || f.timeline != "" || f.pmCSV != "" || f.pmJSON != ""
}

// write exports one finished run's trace, timeline and per-page table (or,
// with -pagemap-2mb, its 2MB-extent roll-up).
func (f runFiles) write(sys *sim.System) error {
	wl := sys.Cfg.Workload
	if p := outPath(f.trace, wl, f.multi); p != "" {
		if err := cli.WriteFile(p, sys.Tracer.WriteJSON); err != nil {
			return err
		}
	}
	if p := outPath(f.timeline, wl, f.multi); p != "" {
		csvPath, jsonPath := p, ""
		if strings.HasSuffix(p, ".json") {
			csvPath, jsonPath = "", p
		}
		if err := cli.WriteTable(sys.Timeline.Samples(), obs.TimelineColumns, csvPath, jsonPath); err != nil {
			return err
		}
	}
	csvPath, jsonPath := outPath(f.pmCSV, wl, f.multi), outPath(f.pmJSON, wl, f.multi)
	if csvPath == "" && jsonPath == "" {
		return nil
	}
	if f.pm2MB {
		return cli.WriteTable(sys.PageMap().Regions(), pagemap.RegionColumns, csvPath, jsonPath)
	}
	return cli.WriteTable(sys.PageMap().Rows(), pagemap.RowColumns, csvPath, jsonPath)
}

// outPath returns base with the workload name inserted before the extension
// when several workloads share one invocation (trace.json -> trace-lbm.json),
// so parallel runs never clobber each other's files.
func outPath(base, wl string, multi bool) string {
	if base == "" || !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + wl + ext
}

// report renders one run; the provenance block only when asked for.
func report(cfg sim.Config, res sim.Results, provenance bool) string {
	var b strings.Builder
	d, n, bf := res.ServiceBreakdown()
	pos, neg, neu := res.AccessEffectiveness()
	fmt.Fprintf(&b, "workload %s  scheme %s  cores %d  scale 1/%d\n", res.Workload, res.Scheme, res.Cores, cfg.Scale)
	fmt.Fprintf(&b, "performance:   IPC %.3f   AMMAT %.1f cycles   (%d instructions, %d cycles)\n",
		res.IPC, res.AMMAT, res.Instructions, res.Cycles)
	if sp := res.Sampling; sp.Windows > 0 {
		fmt.Fprintf(&b, "sampling:      %d windows x %d instr (warm-up %d), fast-forwarded %d instr, extrapolation x%.1f, window IPC cv %.3f\n",
			sp.Windows, sp.WindowInstr, sp.WarmupInstr, sp.FastForwarded, sp.Extrapolation, sp.IPCCV)
	}
	fmt.Fprintf(&b, "service:       DRAM %.1f%%  NVM %.1f%%  swap buffers %.1f%%\n", d*100, n*100, bf*100)
	fmt.Fprintf(&b, "latency:       %s  %s  %s  %s\n",
		latencyCell("DRAM", res.Latency.DRAM), latencyCell("NVM", res.Latency.NVM),
		latencyCell("buf", res.Latency.Buf), latencyCell("pte", res.Latency.PTE))
	fmt.Fprintf(&b, "effectiveness: positive %.1f%%  negative %.1f%%  neutral %.1f%%\n", pos*100, neg*100, neu*100)
	fmt.Fprintf(&b, "page walks:    %d walks, %.1f%% of PTE reads reached the HMC, driver hit rate %.1f%%\n",
		res.MMU.Walks, res.PTEMissRate()*100, res.MMUDriverHitRate()*100)
	fmt.Fprintf(&b, "swaps:         %.3f per Kinstr", res.SwapsPerKI)
	if res.Scheme == sim.SchemePageSeer || res.Scheme == sim.SchemePageSeerNoCorr {
		st := res.PS
		fmt.Fprintf(&b, "  [regular %d, prefetching-triggered %d, MMU-triggered %d]",
			st.SwapsCompleted[0], st.SwapsCompleted[1], st.SwapsCompleted[2])
		fmt.Fprintf(&b, "\n               prefetch accuracy %.1f%% (%d tracked), declined: bw=%d victim=%d queue=%d",
			res.PrefetchAccuracy*100, st.PrefetchTracked, st.DeclinedBW, st.DeclinedNoVictim, st.DeclinedQueue)
		fmt.Fprintf(&b, "\nenergy:        %s", stats.Energy(res.RemapCache, res.PCTc, res.Ctl.DataDemand))
	}
	fmt.Fprintln(&b)
	if eff := res.Effectiveness; provenance && eff.DemandTotal > 0 {
		fmt.Fprintf(&b, "provenance:    started regular %d / pct %d / mmu %d / follower %d  (useful %d, unused %d, open %d, late %d)\n",
			eff.Started[obs.TrigRegular], eff.Started[obs.TrigPCT],
			eff.Started[obs.TrigMMU], eff.Started[obs.TrigFollower],
			eff.TotalUseful(), eff.TotalUnused(), eff.TotalOpen(), eff.Late)
		fmt.Fprintf(&b, "               accuracy %.1f%%  coverage %.1f%%  wasted DRAM/NVM %d/%d KiB",
			eff.Accuracy*100, eff.Coverage*100, eff.WastedDRAMBytes>>10, eff.WastedNVMBytes>>10)
		if eff.LeadTime.Count > 0 {
			fmt.Fprintf(&b, "  hint lead p50/p99 %d/%d cycles (%d hinted-useful)",
				eff.LeadTime.P50, eff.LeadTime.P99, eff.LeadTime.Count)
		}
		fmt.Fprintln(&b)
	}
	if pm := res.PageMap; pm.UniquePages > 0 {
		fmt.Fprintf(&b, "pagemap:       %d pages  hot50/90/99 %d/%d/%d  swaps in/out %d/%d  flapping %d (%d events)  wasted pages %d  NVM wear %d writes\n",
			pm.UniquePages, pm.HotSet50, pm.HotSet90, pm.HotSet99,
			pm.SwapIns, pm.SwapOuts, pm.FlappingPages, pm.FlapEvents,
			pm.WastedSwapPages, pm.NVMWearWrites)
		if pm.TopN > 0 {
			t := pm.Top[0]
			fmt.Fprintf(&b, "               top churner %#x: %d accesses, %d in/%d out, %d flaps, %d wear writes, resident %s\n",
				t.Page, t.Accesses, t.SwapIns, t.SwapOuts, t.FlapEvents, t.WearWrites, t.Resident)
		}
	}
	fmt.Fprintf(&b, "memory:        DRAM %d reads %d writes (row hit %.1f%%) | NVM %d reads %d writes (row hit %.1f%%)\n",
		res.DRAM.Reads, res.DRAM.Writes, rowHitPct(res.DRAM.RowHits, res.DRAM.RowMisses, res.DRAM.RowConflicts),
		res.NVM.Reads, res.NVM.Writes, rowHitPct(res.NVM.RowHits, res.NVM.RowMisses, res.NVM.RowConflicts))
	if f := res.Faults; cfg.Faults.Kind != check.FaultNone {
		fmt.Fprintf(&b, "faults:        %s injected: swap starts blocked %d, metadata misses forced %d, issue stalls %d, storm touches %d\n",
			cfg.Faults.Kind, f.SwapStartsBlocked, f.MetaMissesForced, f.IssueStalls, f.StormTouches)
	}
	if w := res.Watchdog; cfg.Audit {
		fmt.Fprintf(&b, "watchdog:      %d checks, max %d consecutive without progress\n", w.Checks, w.MaxStrikes)
	}
	return b.String()
}

// latencyCell formats one serving source's per-request latency digest
// (cycles) for the report's latency line.
func latencyCell(name string, d obs.Dist) string {
	if d.Count == 0 {
		return name + " —"
	}
	return fmt.Sprintf("%s p50/p90/p99/max %d/%d/%d/%d", name, d.P50, d.P90, d.P99, d.Max)
}

func rowHitPct(h, m, c uint64) float64 {
	t := h + m + c
	if t == 0 {
		return 0
	}
	return float64(h) / float64(t) * 100
}
