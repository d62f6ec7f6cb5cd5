// Command paper-figures regenerates the tables and figures of the PageSeer
// paper's evaluation from simulation runs.
//
// Usage:
//
//	paper-figures -all                # every table and figure (slow)
//	paper-figures -all -j 8           # same, 8 simulations in flight at once
//	paper-figures -quick -all         # reduced campaign for a fast look
//	paper-figures -quick -fig14 -sample 16 -sample-window 1000 -sample-warmup 1000
//	paper-figures -fig14              # just the headline IPC/AMMAT figure
//	paper-figures -fig7 -fig8 -scale 64 -instr 4000000 -warmup 2000000
//	paper-figures -workloads lbm,miniFE,mix6 -fig14
//	paper-figures -quick -effectiveness -effectiveness-csv eff.csv
//
// The first SIGINT lets in-flight runs finish and starts no more; a second
// aborts them into crashdumps. Runs are deterministic, so rerunning the
// same command repeats the campaign: the full grid takes about a minute on
// two cores (see EXPERIMENTS.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pageseer/internal/cli"
	"pageseer/internal/figures"
	"pageseer/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the invocation and returns its exit status: 0 on success, 1
// on a failed run or campaign, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paper-figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	common := cli.Register(fs)
	var (
		all   = fs.Bool("all", false, "regenerate everything")
		quick = fs.Bool("quick", false, "reduced campaign (subset of workloads, small budgets)")

		table1 = fs.Bool("table1", false, "Table I: system configuration")
		table2 = fs.Bool("table2", false, "Table II: PageSeer parameters and energy")
		table3 = fs.Bool("table3", false, "Table III: workloads")
		fig7   = fs.Bool("fig7", false, "Figure 7: service-source breakdown")
		fig8   = fs.Bool("fig8", false, "Figure 8: positive/negative/neutral accesses")
		fig9   = fs.Bool("fig9", false, "Figure 9: prefetch-swap accuracy")
		fig10  = fs.Bool("fig10", false, "Figure 10: swap composition")
		fig11  = fs.Bool("fig11", false, "Figure 11: swap rate with/without BW heuristic")
		fig12  = fs.Bool("fig12", false, "Figure 12: page-walk PTE statistics")
		fig13  = fs.Bool("fig13", false, "Figure 13: remap-cache waiting time vs PoM")
		fig14  = fs.Bool("fig14", false, "Figure 14: IPC and AMMAT normalised to MemPod")
		abl    = fs.Bool("ablation", false, "Section V-C: PageSeer vs PageSeer-NoCorr")
		lat    = fs.Bool("latency", false, "per-source HMC service-latency percentiles (PageSeer)")

		effectCSV    = fs.String("effectiveness-csv", "", "write the effectiveness table to this CSV file (implies -effectiveness)")
		effectJSON   = fs.String("effectiveness-json", "", "write the effectiveness table (with lead-time histograms) to this JSON file (implies -effectiveness)")
		cpistack     = fs.Bool("cpistack", false, "cycle-attribution CPI-stack table incl. the static baseline (attaches attribution to every run; not part of -all)")
		cpistackCSV  = fs.String("cpistack-csv", "", "write the CPI-stack table to this CSV file (implies -cpistack)")
		cpistackJSON = fs.String("cpistack-json", "", "write the CPI-stack table (with per-trigger-class splits) to this JSON file (implies -cpistack)")
		churn        = fs.Bool("churn", false, "address-space churn table: hot-set sizes, swap churn, flaps, NVM wear (attaches the pagemap to every run; not part of -all)")
		churnCSV     = fs.String("churn-csv", "", "write the churn table to this CSV file (implies -churn)")
		churnJSON    = fs.String("churn-json", "", "write the churn table (with reuse histograms and leaderboards) to this JSON file (implies -churn)")

		workloads = fs.String("workloads", "", "comma-separated workload subset")
		quiet     = fs.Bool("quiet", false, "suppress per-run progress")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	effect := &common.Effectiveness

	opts := figures.DefaultOptions()
	if *quick {
		opts = figures.QuickOptions()
	}
	if err := common.ApplyConfig(&opts.Config); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	// Each workload's run template is checked before any run starts, so an
	// unknown workload name is a usage error like any other bad flag value.
	for _, w := range opts.Workloads {
		cfg := opts.Config
		cfg.Workload = w
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	defer stopProfiles()

	if !*quiet {
		opts.Progress = stderr
	}
	observe := &opts.Config.Obs
	if *effectCSV != "" || *effectJSON != "" {
		*effect = true
	}
	// The ledger rides every campaign run when effectiveness output asks
	// for it. It is deliberately NOT part of -all: -all regenerates the
	// paper's figures, whose runs stay ledger-free (and byte-identical to
	// earlier releases).
	observe.Ledger = *effect
	if *cpistackCSV != "" || *cpistackJSON != "" {
		*cpistack = true
	}
	// Cycle attribution follows the same rule: it rides every run when the
	// CPI-stack table asks for it, and never under plain -all.
	observe.CPI = *cpistack
	if *churnCSV != "" || *churnJSON != "" {
		*churn = true
	}
	// The pagemap follows the same rule: only the churn table asks for it.
	observe.PageMap = *churn

	anyFigure := *fig7 || *fig8 || *fig9 || *fig10 || *fig11 || *fig12 || *fig13 || *fig14 || *abl || *lat || *effect || *cpistack || *churn
	anyTable := *table1 || *table2 || *table3
	if *all {
		*table1, *table2, *table3 = true, true, true
		*fig7, *fig8, *fig9, *fig10, *fig11, *fig12, *fig13, *fig14, *abl, *lat =
			true, true, true, true, true, true, true, true, true, true
	} else if !anyFigure && !anyTable {
		fs.Usage()
		return 2
	}

	if *table1 {
		fmt.Fprintln(stdout, figures.Table1(opts.Config.Scale))
	}
	if *table2 {
		fmt.Fprintln(stdout, figures.Table2(opts.Config.Scale))
	}
	if *table3 {
		fmt.Fprintln(stdout, figures.Table3())
	}

	// The session arms the two-stage signal handler; fail reports a
	// campaign-level error and ends the session, so failed runs still get
	// their crashdumps.
	s := common.Open(opts, stderr)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "error:", err)
		s.Finish(true)
		return 1
	}
	r := s.Runner

	// Prefetch fans the needed (workload, scheme, disableBW) runs across
	// the -j worker pool before any figure is assembled; the figure
	// builders then drain the cache serially, so their output is
	// byte-identical to a fully serial campaign.
	needs := figures.Needs{
		Baselines: *fig7 || *fig8 || *fig13 || *fig14 || *effect || *cpistack || *churn,
		NoCorr:    *abl,
		NoBW:      *fig11,
	}
	if anyFigure || *all {
		if err := r.Prefetch(needs); err != nil {
			if errors.Is(err, figures.ErrStopped) {
				return s.Finish(true)
			}
			return fail(err)
		}
	}

	// Outputs print in this order. Each one added after the paper's figures
	// went at the end, so adding it to an invocation never shifts the byte
	// positions of what -all emits: the latency table after the ablation,
	// then effectiveness, then the CPI stacks (whose static-baseline runs
	// are not in the prefetch key set, so they simulate here on first use),
	// then churn.
	outputs := []struct {
		on    bool
		print func(*figures.Runner, io.Writer) error
	}{
		{*fig7, show(figures.Figure7, figures.RenderFigure7)},
		{*fig8, show(figures.Figure8, figures.RenderFigure8)},
		{*fig9, show(figures.Figure9, figures.RenderFigure9)},
		{*fig10, show(figures.Figure10, figures.RenderFigure10)},
		{*fig11, show(figures.Figure11, figures.RenderFigure11)},
		{*fig12, show(figures.Figure12, figures.RenderFigure12)},
		{*fig13, show(figures.Figure13, figures.RenderFigure13)},
		{*fig14, show(figures.Figure14, figures.RenderFigure14)},
		{*abl, show(figures.Ablation, figures.RenderAblation)},
		{*lat, show(figures.LatencyTable, figures.RenderLatencyTable)},
		{*effect, table(figures.EffectivenessTable, figures.RenderEffectiveness,
			figures.EffectivenessColumns, *effectCSV, *effectJSON)},
		{*cpistack, table(figures.CPIStackTable, figures.RenderCPIStack,
			figures.CPIStackColumns, *cpistackCSV, *cpistackJSON)},
		{*churn, table(figures.ChurnTable, figures.RenderChurn,
			figures.ChurnColumns, *churnCSV, *churnJSON)},
	}
	for _, o := range outputs {
		if o.on {
			if err := o.print(r, stdout); err != nil {
				return fail(err)
			}
		}
	}

	// Failed runs were absorbed as gaps so the rest of the campaign could
	// finish; Finish reports them — with a crashdump file each — and fails
	// the exit code only now, after every figure and table has printed.
	return s.Finish(false)
}

// show builds one figure from the campaign and prints it to w.
func show[T any](build func(*figures.Runner) (T, error), render func(T) string) func(*figures.Runner, io.Writer) error {
	return func(r *figures.Runner, w io.Writer) error {
		rows, err := build(r)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render(rows))
		return nil
	}
}

// table is show for a table that also writes its rows to the CSV and JSON
// files named (none when empty).
func table[T any](build func(*figures.Runner) ([]T, error), render func([]T) string,
	cols obs.Columns[T], csvPath, jsonPath string) func(*figures.Runner, io.Writer) error {
	return func(r *figures.Runner, w io.Writer) error {
		rows, err := build(r)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render(rows))
		return cli.WriteTable(rows, cols, csvPath, jsonPath)
	}
}
