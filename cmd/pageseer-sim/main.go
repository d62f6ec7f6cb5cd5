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
// -serve runs the campaign introspection server from paper-figures over
// this invocation's runs (progress on /, per-run JSON on /runs, Prometheus
// metrics on /metrics, pprof under /debug/pprof/); -trace writes
// swap-lifecycle spans and MMU-hint causality arrows in Chrome Trace Event
// Format (open in Perfetto or chrome://tracing); -timeline samples IPC,
// swap activity, and queue occupancy every -timeline-every cycles into CSV
// (or JSON when the path ends in .json).
// With multiple workloads each run writes its own file, the workload name
// inserted before the extension (trace.json -> trace-lbm.json).
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
//	pageseer-sim -workload all -serve :8090
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pageseer"
	"pageseer/internal/cli"
	"pageseer/internal/stats"
)

// Graceful-shutdown state for direct (non-runner) runs: the first
// SIGINT/SIGTERM sets stopping so queued runs never start; a second signal
// aborts the registered in-flight systems at their next event boundary.
var (
	stopping atomic.Bool
	activeMu sync.Mutex
	active   = map[*pageseer.System]struct{}{}
)

// errSkipped marks runs that never started because the process was
// interrupted; they are reported in one summary line, not as failures with
// crashdumps.
var errSkipped = errors.New("interrupted before this run started")

func trackActive(sys *pageseer.System, on bool) {
	activeMu.Lock()
	defer activeMu.Unlock()
	if on {
		active[sys] = struct{}{}
	} else {
		delete(active, sys)
	}
}

func abortActive(reason string) {
	activeMu.Lock()
	defer activeMu.Unlock()
	for sys := range active {
		sys.Abort(reason)
	}
}

func main() {
	common := cli.Register(flag.CommandLine)
	var (
		wl     = flag.String("workload", "lbm", `Table III workload name(s), comma-separated, or "all"`)
		scheme = flag.String("scheme", "pageseer", "pageseer | pageseer-nocorr | pom | mempod | static")
		nobw   = flag.Bool("nobw", false, "disable the Swap Driver bandwidth heuristic")
		list   = flag.Bool("list", false, "list workloads and exit")

		cpi       = flag.Bool("cpi", false, "attach cycle attribution and print the CPI-stack table")
		cpiCSV    = flag.String("cpi-csv", "", "write the CPI stacks to this CSV file (implies -cpi)")
		cpiJSON   = flag.String("cpi-json", "", "write the CPI stacks (with per-trigger-class splits) to this JSON file (implies -cpi)")
		pagemapOn = flag.Bool("pagemap", false, "attach the per-page telemetry table and print its digest (hot sets, churn, flaps, NVM wear)")
		pmCSV     = flag.String("pagemap-csv", "", "write the full per-page table to this CSV file (implies -pagemap)")
		pmJSON    = flag.String("pagemap-json", "", "write the full per-page table to this JSON file (implies -pagemap)")
		pm2MB     = flag.Bool("pagemap-2mb", false, "roll the -pagemap-csv/-json export up into 2MB extents instead of per-page rows")
		tracePath = flag.String("trace", "", "write a Chrome/Perfetto trace of swap lifecycles and MMU hints to this file")
		tlPath    = flag.String("timeline", "", "write the epoch timeline to this file (.json = JSON, otherwise CSV)")
		tlEvery   = flag.Uint64("timeline-every", 50_000, "timeline sampling interval in cycles")
	)
	flag.Parse()

	// Flag-combination validation up front, before any run (or server) starts:
	// -serve and -journal route runs through the campaign runner, which owns
	// no per-run file sinks, so the per-run observers cannot combine with it.
	if common.Serve != "" || common.Journal != "" {
		var conflicting []string
		if *tracePath != "" {
			conflicting = append(conflicting, "-trace")
		}
		if *tlPath != "" {
			conflicting = append(conflicting, "-timeline")
		}
		if *pmCSV != "" || *pmJSON != "" {
			conflicting = append(conflicting, "-pagemap-csv/-json")
		}
		if len(conflicting) > 0 {
			with := "-serve"
			if common.Serve == "" {
				with = "-journal"
			}
			fmt.Fprintf(os.Stderr, "error: %s cannot be combined with %s: the campaign runner behind it owns no per-run file sinks\n", with, strings.Join(conflicting, "/"))
			os.Exit(2)
		}
	}
	if err := common.CheckResume(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, w := range pageseer.Workloads() {
			fmt.Printf("%-12s (%s)\n", w, pageseer.Suite(w))
		}
		return
	}

	wls := strings.Split(*wl, ",")
	if *wl == "all" {
		wls = pageseer.Workloads()
	}

	cfg := pageseer.DefaultConfig()
	cfg.Scheme = pageseer.Scheme(*scheme)
	cfg.DisableBWOpt = *nobw
	if err := common.ApplyConfig(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	cfg.Obs.Trace = *tracePath != ""
	if *cpiCSV != "" || *cpiJSON != "" {
		*cpi = true
	}
	// The introspection server's /metrics page draws on the provenance and
	// attribution digests, so -serve attaches both (mirroring paper-figures).
	cfg.Obs.Ledger = common.Effectiveness || common.Serve != ""
	cfg.Obs.CPI = *cpi || common.Serve != ""
	if *pmCSV != "" || *pmJSON != "" {
		*pagemapOn = true
	}
	cfg.Obs.PageMap = *pagemapOn
	if *tlPath != "" {
		cfg.Obs.TimelineEvery = *tlEvery
	}

	// With -serve or -journal the runs route through a figures.Runner — so
	// the campaign introspection server sees them live, and completed runs
	// journal durably; the runner owns no per-run sinks, so the file-writing
	// observers cannot combine with it.
	var fr *pageseer.FigureRunner
	var journal *pageseer.Journal
	var srv *http.Server
	if common.Serve != "" || common.Journal != "" {
		fopts := pageseer.FigureOptions{
			Scale:        cfg.Scale,
			InstrPerCore: cfg.InstrPerCore,
			Warmup:       cfg.Warmup,
			Workloads:    wls,
			Ledger:       cfg.Obs.Ledger,
			CPI:          cfg.Obs.CPI,
			PageMap:      cfg.Obs.PageMap,
		}
		if err := common.ApplyOptions(&fopts); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		if common.Journal != "" {
			j, err := pageseer.OpenJournal(common.Journal, pageseer.CampaignHash(fopts), common.Resume)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			if common.Resume {
				fmt.Fprintf(os.Stderr, "journal: resuming from %s — %d run(s) already complete\n", common.Journal, j.Completed())
			}
			journal = j
			fopts.Journal = j
		}
		fr = pageseer.NewFigureRunner(fopts)
	}
	if common.Serve != "" {
		ln, err := net.Listen("tcp", common.Serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "introspection server on http://%s/ (also /runs, /metrics, /debug/pprof/)\n", ln.Addr())
		srv = &http.Server{Handler: pageseer.NewIntrospectionHandler(fr)}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "serve:", err)
			}
		}()
	}

	// Graceful shutdown: first SIGINT/SIGTERM lets in-flight runs finish
	// (and journal) while queued runs never start; a second signal aborts
	// the in-flight runs at their next event boundary.
	sigCtx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCtx.Done()
		stopping.Store(true)
		if fr != nil {
			fr.Stop()
		}
		fmt.Fprintln(os.Stderr, "\ninterrupted: no new runs will start; in-flight runs finish (signal again to abort them)")
		second := make(chan os.Signal, 1)
		signal.Notify(second, os.Interrupt, syscall.SIGTERM)
		<-second
		fmt.Fprintln(os.Stderr, "interrupted again: aborting in-flight runs")
		if fr != nil {
			fr.AbortActive("run aborted by signal")
		}
		abortActive("run aborted by signal")
	}()

	// Fan runs across -j workers; each worker owns its private system, so
	// per-run determinism is untouched. Reports buffer per run and print
	// in argument order, never interleaved.
	par := common.Jobs
	if par < 1 {
		par = 1
	}
	if par > len(wls) {
		par = len(wls)
	}
	reports := make([]string, len(wls))
	results := make([]pageseer.Results, len(wls))
	errs := make([]error, len(wls))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if stopping.Load() {
					errs[i] = errSkipped
					continue
				}
				c := cfg
				c.Workload = wls[i]
				if fr != nil {
					var res pageseer.Results
					var err error
					if c.DisableBWOpt && c.Scheme == pageseer.SchemePageSeer {
						res, err = fr.RunNoBWOpt(c.Workload)
					} else {
						res, err = fr.Run(c.Workload, c.Scheme)
					}
					results[i], errs[i] = res, err
					if err == nil {
						reports[i] = report(c, res)
					}
					continue
				}
				multi := len(wls) > 1
				sinks := runSinks{
					trace:    outPath(*tracePath, wls[i], multi),
					timeline: outPath(*tlPath, wls[i], multi),
					pmCSV:    outPath(*pmCSV, wls[i], multi),
					pmJSON:   outPath(*pmJSON, wls[i], multi),
					pm2MB:    *pm2MB,
				}
				results[i], reports[i], errs[i] = runOne(c, sinks, common.RunTimeout)
			}
		}()
	}
	for i := range wls {
		work <- i
	}
	close(work)
	wg.Wait()

	// Report every run — successes in argument order, failures to stderr
	// with a crashdump file each — and only then decide the exit code, so
	// one bad run never hides the others' results.
	failed := false
	skipped := 0
	for i := range wls {
		if errs[i] != nil {
			failed = true
			if errors.Is(errs[i], errSkipped) || errors.Is(errs[i], pageseer.ErrStopped) {
				skipped++
				continue
			}
			fmt.Fprintln(os.Stderr, "error:", errs[i])
			var re *pageseer.RunError
			if errors.As(errs[i], &re) {
				path := filepath.Join(common.CrashdumpDir, fmt.Sprintf("crashdump-%s-%s.txt", re.Workload, re.Scheme))
				if werr := os.WriteFile(path, []byte(re.Crashdump), 0o644); werr != nil {
					fmt.Fprintln(os.Stderr, "crashdump:", werr)
				} else {
					fmt.Fprintln(os.Stderr, "crashdump written to", path)
				}
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(reports[i])
	}

	// The CPI-stack table aggregates the successful runs (argument order)
	// after the per-run reports, like paper-figures prints its tables after
	// the figures.
	if *cpi {
		label := *scheme
		if *nobw {
			label += "-nobw"
		}
		var rows []pageseer.CPIStackRow
		for i := range wls {
			if errs[i] != nil {
				continue
			}
			rows = append(rows, pageseer.CPIStackRow{
				Workload:     wls[i],
				Scheme:       label,
				Instructions: results[i].Instructions,
				Stack:        results[i].CPIStack,
			})
		}
		fmt.Println()
		fmt.Print(pageseer.RenderCPIStack(rows))
		if *cpiCSV != "" {
			if err := writeSink(*cpiCSV, func(w io.Writer) error { return pageseer.WriteCPIStackCSV(w, rows) }); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				failed = true
			}
		}
		if *cpiJSON != "" {
			if err := writeSink(*cpiJSON, func(w io.Writer) error { return pageseer.WriteCPIStackJSON(w, rows) }); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				failed = true
			}
		}
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
		}
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "interrupted: %d run(s) never started\n", skipped)
		if journal != nil {
			fmt.Fprintf(os.Stderr, "resume with the same flags plus: -journal %s -resume\n", common.Journal)
		} else {
			fmt.Fprintln(os.Stderr, "hint: -journal DIR makes interrupted invocations resumable")
		}
	}
	if failed {
		os.Exit(1)
	}
	// With -serve the process keeps the introspection endpoints alive after
	// the runs so their results stay inspectable. On interrupt the server
	// drains in-flight HTTP requests under a deadline instead of cutting
	// connections mid-response.
	if srv != nil {
		fmt.Fprintln(os.Stderr, "runs complete; introspection server still running (Ctrl-C to exit)")
		<-sigCtx.Done()
		drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(drain); err != nil {
			srv.Close()
		}
	}
}

// runSinks carries one run's per-run output files (multi-workload
// invocations get the workload name inserted via outPath).
type runSinks struct {
	trace, timeline string
	pmCSV, pmJSON   string
	pm2MB           bool
}

func runOne(cfg pageseer.Config, sinks runSinks, timeout time.Duration) (pageseer.Results, string, error) {
	sys, err := pageseer.Build(cfg)
	if err != nil {
		return pageseer.Results{}, "", err
	}
	trackActive(sys, true)
	defer trackActive(sys, false)
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			sys.Abort(fmt.Sprintf("wall-clock run timeout %s exceeded", timeout))
		})
		defer t.Stop()
	}
	res, err := sys.Run()
	if err != nil {
		return pageseer.Results{}, "", err
	}
	if sinks.trace != "" {
		if err := writeSink(sinks.trace, sys.Tracer.WriteJSON); err != nil {
			return pageseer.Results{}, "", err
		}
	}
	if sinks.timeline != "" {
		w := sys.Timeline.WriteCSV
		if strings.HasSuffix(sinks.timeline, ".json") {
			w = sys.Timeline.WriteJSON
		}
		if err := writeSink(sinks.timeline, w); err != nil {
			return pageseer.Results{}, "", err
		}
	}
	if sinks.pmCSV != "" || sinks.pmJSON != "" {
		if err := writePageMap(sys, sinks); err != nil {
			return pageseer.Results{}, "", err
		}
	}
	return res, report(cfg, res), nil
}

// writePageMap exports the run's full per-page table (or, with -pagemap-2mb,
// its 2MB-extent roll-up) to the requested files.
func writePageMap(sys *pageseer.System, sinks runSinks) error {
	pm := sys.PageMap()
	if sinks.pm2MB {
		regions := pm.Regions()
		if sinks.pmCSV != "" {
			if err := writeSink(sinks.pmCSV, func(w io.Writer) error { return pageseer.WritePageMapRegionsCSV(w, regions) }); err != nil {
				return err
			}
		}
		if sinks.pmJSON != "" {
			if err := writeSink(sinks.pmJSON, func(w io.Writer) error { return pageseer.WritePageMapRegionsJSON(w, regions) }); err != nil {
				return err
			}
		}
		return nil
	}
	rows := pm.Rows()
	if sinks.pmCSV != "" {
		if err := writeSink(sinks.pmCSV, func(w io.Writer) error { return pageseer.WritePageMapCSV(w, rows) }); err != nil {
			return err
		}
	}
	if sinks.pmJSON != "" {
		if err := writeSink(sinks.pmJSON, func(w io.Writer) error { return pageseer.WritePageMapJSON(w, rows) }); err != nil {
			return err
		}
	}
	return nil
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

func writeSink(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(cfg pageseer.Config, res pageseer.Results) string {
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
	if res.Scheme == pageseer.SchemePageSeer || res.Scheme == pageseer.SchemePageSeerNoCorr {
		st := res.PS
		fmt.Fprintf(&b, "  [regular %d, prefetching-triggered %d, MMU-triggered %d]",
			st.SwapsCompleted[0], st.SwapsCompleted[1], st.SwapsCompleted[2])
		fmt.Fprintf(&b, "\n               prefetch accuracy %.1f%% (%d tracked), declined: bw=%d victim=%d queue=%d",
			res.PrefetchAccuracy*100, st.PrefetchTracked, st.DeclinedBW, st.DeclinedNoVictim, st.DeclinedQueue)
		fmt.Fprintf(&b, "\nenergy:        %s", stats.Energy(res.RemapCache, res.PCTc, res.Ctl.DataDemand))
	}
	fmt.Fprintln(&b)
	if eff := res.Effectiveness; eff.DemandTotal > 0 {
		fmt.Fprintf(&b, "provenance:    started regular %d / pct %d / mmu %d / follower %d  (useful %d, unused %d, open %d, late %d)\n",
			eff.Started[pageseer.TrigRegular], eff.Started[pageseer.TrigPCT],
			eff.Started[pageseer.TrigMMU], eff.Started[pageseer.TrigFollower],
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
	return b.String()
}

// latencyCell formats one serving source's per-request latency digest
// (cycles) for the report's latency line.
func latencyCell(name string, d pageseer.LatencyDist) string {
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
