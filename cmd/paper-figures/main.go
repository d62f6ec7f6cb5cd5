// Command paper-figures regenerates the tables and figures of the PageSeer
// paper's evaluation from simulation runs.
//
// Usage:
//
//	paper-figures -all                # every table and figure (slow)
//	paper-figures -all -j 8           # same, 8 simulations in flight at once
//	paper-figures -quick -all         # reduced campaign for a fast look
//	paper-figures -quick -all -benchjson BENCH_campaign.json
//	paper-figures -quick -fig14 -sample 16 -sample-window 1000 -sample-warmup 1000
//	paper-figures -fig14              # just the headline IPC/AMMAT figure
//	paper-figures -fig7 -fig8 -scale 64 -instr 4000000 -warmup 2000000
//	paper-figures -workloads lbm,miniFE,mix6 -fig14
//	paper-figures -quick -effectiveness -effectiveness-csv eff.csv
//	paper-figures -all -serve :8090   # live campaign introspection server
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pageseer/internal/cli"
	"pageseer/internal/figures"
)

func main() {
	common := cli.Register(flag.CommandLine)
	var (
		all   = flag.Bool("all", false, "regenerate everything")
		quick = flag.Bool("quick", false, "reduced campaign (subset of workloads, small budgets)")

		table1 = flag.Bool("table1", false, "Table I: system configuration")
		table2 = flag.Bool("table2", false, "Table II: PageSeer parameters and energy")
		table3 = flag.Bool("table3", false, "Table III: workloads")
		fig7   = flag.Bool("fig7", false, "Figure 7: service-source breakdown")
		fig8   = flag.Bool("fig8", false, "Figure 8: positive/negative/neutral accesses")
		fig9   = flag.Bool("fig9", false, "Figure 9: prefetch-swap accuracy")
		fig10  = flag.Bool("fig10", false, "Figure 10: swap composition")
		fig11  = flag.Bool("fig11", false, "Figure 11: swap rate with/without BW heuristic")
		fig12  = flag.Bool("fig12", false, "Figure 12: page-walk PTE statistics")
		fig13  = flag.Bool("fig13", false, "Figure 13: remap-cache waiting time vs PoM")
		fig14  = flag.Bool("fig14", false, "Figure 14: IPC and AMMAT normalised to MemPod")
		abl    = flag.Bool("ablation", false, "Section V-C: PageSeer vs PageSeer-NoCorr")
		lat    = flag.Bool("latency", false, "per-source HMC service-latency percentiles (PageSeer)")

		effectCSV    = flag.String("effectiveness-csv", "", "write the effectiveness table to this CSV file (implies -effectiveness)")
		effectJSON   = flag.String("effectiveness-json", "", "write the effectiveness table (with lead-time histograms) to this JSON file (implies -effectiveness)")
		cpistack     = flag.Bool("cpistack", false, "cycle-attribution CPI-stack table incl. the static baseline (attaches attribution to every run; not part of -all)")
		cpistackCSV  = flag.String("cpistack-csv", "", "write the CPI-stack table to this CSV file (implies -cpistack)")
		cpistackJSON = flag.String("cpistack-json", "", "write the CPI-stack table (with per-trigger-class splits) to this JSON file (implies -cpistack)")
		churn        = flag.Bool("churn", false, "address-space churn table: hot-set sizes, swap churn, flaps, NVM wear (attaches the pagemap to every run; not part of -all)")
		churnCSV     = flag.String("churn-csv", "", "write the churn table to this CSV file (implies -churn)")
		churnJSON    = flag.String("churn-json", "", "write the churn table (with reuse histograms and leaderboards) to this JSON file (implies -churn)")

		workloads    = flag.String("workloads", "", "comma-separated workload subset")
		quiet        = flag.Bool("quiet", false, "suppress per-run progress")
		benchJSON    = flag.String("benchjson", "", "write per-run wall-clock/throughput records to this JSON file")
		benchNote    = flag.String("benchnote", "", "free-form note recorded in the -benchjson output (e.g. serial-vs-parallel comparison)")
		benchSampled = flag.String("bench-sampled", "", "additionally rerun the campaign in sampled mode \"N,W,K\" (windows, window instr, warm-up instr) and append its records to -benchjson, so the trajectory captures sampled-vs-detailed wall-clock")
		retry        = flag.Int("retry", 0, "retry each failed run up to N times (capped exponential backoff) before reporting it as a gap")
	)
	flag.Parse()
	effect := &common.Effectiveness

	if *benchSampled != "" && *benchJSON == "" {
		fmt.Fprintln(os.Stderr, "error: -bench-sampled requires -benchjson (it only adds records to the bench output)")
		os.Exit(2)
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	opts := figures.DefaultOptions()
	if *quick {
		opts = figures.QuickOptions()
	}
	if err := common.ApplyOptions(&opts); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	opts.Retries = *retry
	if *effectCSV != "" || *effectJSON != "" {
		*effect = true
	}
	// The ledger rides every campaign run when effectiveness output or the
	// introspection server asks for it. It is deliberately NOT part of
	// -all: -all regenerates the paper's figures, whose runs stay
	// ledger-free (and byte-identical to earlier releases).
	opts.Ledger = *effect || common.Serve != ""
	if *cpistackCSV != "" || *cpistackJSON != "" {
		*cpistack = true
	}
	// Cycle attribution follows the same rule: it rides every run when the
	// CPI-stack table or the introspection server (per-component cycle
	// counters on /metrics) asks for it, and never under plain -all.
	opts.CPI = *cpistack || common.Serve != ""
	if *churnCSV != "" || *churnJSON != "" {
		*churn = true
	}
	// The pagemap is opt-in only (never implied by -serve): unlike the
	// ledger and attribution digests its table grows with the footprint, so
	// only the churn table asks for it.
	opts.PageMap = *churn

	anyFigure := *fig7 || *fig8 || *fig9 || *fig10 || *fig11 || *fig12 || *fig13 || *fig14 || *abl || *lat || *effect || *cpistack || *churn
	anyTable := *table1 || *table2 || *table3
	if *all {
		*table1, *table2, *table3 = true, true, true
		*fig7, *fig8, *fig9, *fig10, *fig11, *fig12, *fig13, *fig14, *abl, *lat =
			true, true, true, true, true, true, true, true, true, true
	} else if !anyFigure && !anyTable && common.Serve == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *table1 {
		fmt.Println(figures.Table1(opts.Scale))
	}
	if *table2 {
		fmt.Println(figures.Table2(opts.Scale))
	}
	if *table3 {
		fmt.Println(figures.Table3())
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	// The campaign journal makes the grid crash-safe: completed runs are
	// fsynced to <dir>/journal.psj as they finish, and -resume replays them
	// instead of re-executing (refusing a journal recorded under different
	// campaign options).
	var journal *figures.Journal
	if err := common.CheckResume(); err != nil {
		fail(err)
	}
	if common.Journal != "" {
		j, err := figures.OpenJournal(common.Journal, figures.CampaignHash(opts), common.Resume)
		if err != nil {
			fail(err)
		}
		journal = j
		opts.Journal = j
		if common.Resume {
			fmt.Fprintf(os.Stderr, "journal: resuming from %s — %d run(s) already complete\n", common.Journal, j.Completed())
		}
	}

	r := figures.NewRunner(opts)

	// Graceful shutdown: the first SIGINT/SIGTERM stops launching new runs
	// while in-flight runs finish (and journal); a second signal aborts the
	// in-flight runs at their next event boundary, so they fail into
	// crashdump-carrying *sim.RunErrors instead of being lost silently.
	// (sigStop is never called: the handler stays armed for the whole
	// process so a signal during late output still stops cleanly.)
	sigCtx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCtx.Done()
		r.Stop()
		fmt.Fprintln(os.Stderr, "\ninterrupted: no new runs will start; in-flight runs finish (signal again to abort them)")
		second := make(chan os.Signal, 1)
		signal.Notify(second, os.Interrupt, syscall.SIGTERM)
		<-second
		fmt.Fprintln(os.Stderr, "interrupted again: aborting in-flight runs")
		r.AbortActive("campaign aborted by signal")
	}()

	// The introspection server watches the campaign live: it reads the
	// Runner's memoisation cache, so it sees runs the moment they begin.
	var srv *http.Server
	if common.Serve != "" {
		ln, err := net.Listen("tcp", common.Serve)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "introspection server on http://%s/ (also /runs, /metrics, /debug/pprof/)\n", ln.Addr())
		srv = &http.Server{Handler: figures.NewIntrospectionHandler(r)}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "serve:", err)
			}
		}()
	}

	// Prefetch fans the needed (workload, scheme, disableBW) runs across
	// the -j worker pool before any figure is assembled; the figure
	// builders then drain the cache serially, so their output is
	// byte-identical to a fully serial campaign.
	needs := figures.Needs{
		Baselines: *fig7 || *fig8 || *fig13 || *fig14 || *effect || *cpistack || *churn,
		NoCorr:    *abl,
		NoBW:      *fig11,
	}
	campaignStart := time.Now()
	if anyFigure || *all {
		if err := r.Prefetch(needs); err != nil {
			if errors.Is(err, figures.ErrStopped) {
				if journal != nil {
					journal.Close()
					fmt.Fprintf(os.Stderr, "campaign stopped: %d run(s) journaled; resume with the same flags plus: -journal %s -resume\n",
						journal.Completed(), common.Journal)
				} else {
					fmt.Fprintln(os.Stderr, "campaign stopped; hint: -journal DIR makes interrupted campaigns resumable")
				}
				os.Exit(1)
			}
			fail(err)
		}
	}
	campaignWall := time.Since(campaignStart)

	if *fig7 {
		rows, err := figures.Figure7(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderFigure7(rows))
	}
	if *fig8 {
		rows, err := figures.Figure8(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderFigure8(rows))
	}
	if *fig9 {
		rows, err := figures.Figure9(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderFigure9(rows))
	}
	if *fig10 {
		rows, err := figures.Figure10(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderFigure10(rows))
	}
	if *fig11 {
		rows, err := figures.Figure11(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderFigure11(rows))
	}
	if *fig12 {
		rows, err := figures.Figure12(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderFigure12(rows))
	}
	if *fig13 {
		rows, err := figures.Figure13(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderFigure13(rows))
	}
	if *fig14 {
		sum, err := figures.Figure14(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderFigure14(sum))
	}
	if *abl {
		rows, err := figures.Ablation(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderAblation(rows))
	}
	// The latency table prints last so every pre-existing output keeps its
	// position (and bytes) in an -all run.
	if *lat {
		rows, err := figures.LatencyTable(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderLatencyTable(rows))
	}

	// Effectiveness prints after everything -all emits, so adding it to an
	// invocation never shifts the byte positions of the paper's figures.
	if *effect {
		rows, err := figures.EffectivenessTable(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderEffectiveness(rows))
		if *effectCSV != "" {
			if err := writeFile(*effectCSV, rows, figures.WriteEffectivenessCSV); err != nil {
				fail(err)
			}
		}
		if *effectJSON != "" {
			if err := writeFile(*effectJSON, rows, figures.WriteEffectivenessJSON); err != nil {
				fail(err)
			}
		}
	}

	// CPI stacks print after effectiveness for the same byte-stability
	// reason. The table's static-baseline runs are not in the prefetch key
	// set, so they simulate here on first use.
	if *cpistack {
		rows, err := figures.CPIStackTable(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderCPIStack(rows))
		if *cpistackCSV != "" {
			if err := writeFile(*cpistackCSV, rows, figures.WriteCPIStackCSV); err != nil {
				fail(err)
			}
		}
		if *cpistackJSON != "" {
			if err := writeFile(*cpistackJSON, rows, figures.WriteCPIStackJSON); err != nil {
				fail(err)
			}
		}
	}

	// Churn prints last among the opt-in tables, keeping every earlier
	// output's byte position stable.
	if *churn {
		rows, err := figures.ChurnTable(r)
		if err != nil {
			fail(err)
		}
		fmt.Println(figures.RenderChurn(rows))
		if *churnCSV != "" {
			if err := writeFile(*churnCSV, rows, figures.WriteChurnCSV); err != nil {
				fail(err)
			}
		}
		if *churnJSON != "" {
			if err := writeFile(*churnJSON, rows, figures.WriteChurnJSON); err != nil {
				fail(err)
			}
		}
	}

	if *benchJSON != "" {
		runs := r.Metrics()
		benchWall := campaignWall
		// -bench-sampled reruns the same campaign grid in sampled mode and
		// appends its per-run records. The records carry their window
		// geometry (sample_windows etc.), so consumers like benchguard can
		// keep sampled and detailed entries apart.
		if *benchSampled != "" {
			var n, w, k uint64
			if _, err := fmt.Sscanf(*benchSampled, "%d,%d,%d", &n, &w, &k); err != nil || n == 0 || w == 0 {
				fail(fmt.Errorf("-bench-sampled wants \"N,W,K\" with N, W > 0 (windows, window instr, warm-up instr): %q", *benchSampled))
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "bench-sampled: rerunning campaign with %d windows x %d instr (warm-up %d)\n", n, w, k)
			}
			sopts := opts
			sopts.Sample, sopts.SampleWindow, sopts.SampleWarmup = n, w, k
			sr := figures.NewRunner(sopts)
			start := time.Now()
			if err := sr.Prefetch(needs); err != nil {
				fail(err)
			}
			benchWall += time.Since(start)
			if fails := sr.Failures(); len(fails) > 0 {
				for _, f := range fails {
					fmt.Fprintf(os.Stderr, "bench-sampled: %s/%s failed: %v\n", f.Workload, f.Scheme, f.Err.Cause)
				}
				os.Exit(1)
			}
			runs = append(runs, sr.Metrics()...)
		}
		if err := writeBenchJSON(*benchJSON, runs, opts, common.Jobs, *quick, benchWall, *benchNote); err != nil {
			fail(err)
		}
	}

	// Failed runs were absorbed as gaps so the rest of the campaign could
	// finish; report them — with a crashdump file each — and fail the exit
	// code only now, after every figure and table has printed.
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
		}
	}

	if fails := r.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d run(s) failed (their figures show gaps):\n", len(fails))
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %s/%s (%d attempt(s)): %v\n", f.Workload, f.Scheme, f.Attempts, f.Err.Cause)
			path := filepath.Join(common.CrashdumpDir, fmt.Sprintf("crashdump-%s-%s.txt", f.Workload, f.Scheme))
			if err := os.WriteFile(path, []byte(f.Err.Crashdump), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "  crashdump:", err)
			} else {
				fmt.Fprintln(os.Stderr, "  crashdump written to", path)
			}
		}
		os.Exit(1)
	}

	// With -serve the process keeps the introspection endpoints alive after
	// the campaign so its results stay inspectable. On interrupt the server
	// drains in-flight HTTP requests under a deadline instead of cutting
	// connections mid-response.
	if srv != nil {
		fmt.Fprintln(os.Stderr, "campaign complete; introspection server still running (Ctrl-C to exit)")
		<-sigCtx.Done()
		drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(drain); err != nil {
			srv.Close()
		}
	}
}

// writeFile writes rows to path with one of the table encoders.
func writeFile[T any](path string, rows []T, write func(io.Writer, []T) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// campaignBench is the machine-readable perf record (BENCH_campaign.json):
// one campaign's wall-clock and per-run throughput, so future changes have
// a trajectory to compare against.
type campaignBench struct {
	Generated        string              `json:"generated"`
	Note             string              `json:"note,omitempty"`
	GoMaxProcs       int                 `json:"go_max_procs"`
	NumCPU           int                 `json:"num_cpu"`
	Parallelism      int                 `json:"parallelism"`
	Quick            bool                `json:"quick"`
	Workloads        []string            `json:"workloads"`
	Runs             []figures.RunMetric `json:"runs"`
	TotalWallSeconds float64             `json:"total_wall_seconds"`
	TotalEvents      uint64              `json:"total_events"`
	EventsPerSec     float64             `json:"events_per_sec"`
}

func writeBenchJSON(path string, runs []figures.RunMetric, opts figures.Options, jobs int, quick bool, wall time.Duration, note string) error {
	b := campaignBench{
		Generated:        time.Now().UTC().Format(time.RFC3339),
		Note:             note,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		Parallelism:      jobs,
		Quick:            quick,
		Workloads:        opts.Workloads,
		Runs:             runs,
		TotalWallSeconds: wall.Seconds(),
	}
	for _, m := range b.Runs {
		b.TotalEvents += m.EventsFired
	}
	if b.TotalWallSeconds > 0 {
		b.EventsPerSec = float64(b.TotalEvents) / b.TotalWallSeconds
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
