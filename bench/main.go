// Command bench is the repository's benchmark: it times the simulator on
// three workloads and reports end-to-end metrics from untraced repeats and
// per-layer metrics from a CPU-profiled, span-logged traced half of the run.
// See README.md for the workloads, metrics and how to read them.
//
// Run it from the repository root:
//
//	bash bench/run.sh                                   # all workloads, traced
//	bash bench/run.sh -workload sampled -seed 2 -trace 0
//	bash bench/run.sh -trace 0 -out A.json              # then, on another tree,
//	bash bench/run.sh -compare A.json B.json            # flag moves beyond bounds
//
// With -workload set, the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, the metrics being the
// end-to-end set untraced and the per-layer set traced.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: pageseer-detailed, baselines-detailed or sampled (empty: each in its own child process)")
		seed     = flag.Uint64("seed", 1, "workload seed, passed into Config.Seed")
		seconds  = flag.Float64("seconds", 30, "length of the timed window per workload, in seconds")
		trace    = flag.Int("trace", 1, "1: profile the window's second half and report per-layer metrics; 0: end-to-end metrics only")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for profile.pb.gz, spans.json and layers.json, one subdirectory per workload")
		out      = flag.String("out", "", "write the stamped result file here")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments against the bounds in -bounds")
		bounds   = flag.String("bounds", "BENCHMARK.json", "BENCHMARK.json holding the end-to-end bounds, for -compare")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}

	if *name == "" {
		if err := runAll(opt, *out); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	rep, err := runWorkload(w, opt)
	if err != nil {
		fatal(err)
	}
	printReport(os.Stdout, w.name, rep, opt.trace)
	if *out != "" {
		rf := resultFile{Stamp: newStamp(opt), Workloads: map[string]*workloadReport{w.name: rep}}
		if err := writeJSON(*out, rf); err != nil {
			fatal(err)
		}
	}
	if err := printContractLine(os.Stdout, rep, opt.trace); err != nil {
		fatal(err)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs each workload in a child process of its own, one at a time,
// so each has its own heap and peak RSS, and merges their result files.
func runAll(opt options, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "pageseer-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rf := resultFile{Stamp: newStamp(opt), Workloads: map[string]*workloadReport{}}
	var failed []string
	for _, w := range workloads {
		part := filepath.Join(tmp, w.name+".json")
		cmd := exec.Command(exe,
			"-workload", w.name,
			"-seed", fmt.Sprint(opt.seed),
			"-seconds", fmt.Sprint(opt.seconds),
			"-trace", traceFlag(opt.trace),
			"-trace-dir", opt.traceDir,
			"-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
		child, err := readResultFile(part)
		if err != nil {
			continue // the child failed before writing; already reported
		}
		rf.Workloads[w.name] = child.Workloads[w.name]
	}
	if out != "" {
		if err := writeJSON(out, rf); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

func traceFlag(on bool) string {
	if on {
		return "1"
	}
	return "0"
}

// printReport writes the human-readable report of one workload.
func printReport(w io.Writer, name string, rep *workloadReport, traced bool) {
	fmt.Fprintf(w, "workload %s: %d timed repeats", name, rep.Repeats)
	if traced {
		fmt.Fprintf(w, " + %d traced", rep.TracedRepeats)
	}
	fmt.Fprintf(w, ", %d runs attempted, %d failed\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	if rep.SwapRateDrift > 0 {
		fmt.Fprintf(w, "  NOTE %d timed runs differ from the verification pass in SwapsPerKI alone: sampled PageSeer's known nondeterminism (README.md, \"Correctness\")\n", rep.SwapRateDrift)
	}
	for _, d := range endToEnd {
		s, ok := rep.EndToEnd[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-12s repeats: q1 %.6g  median %.6g  q3 %.6g  n=%d\n", d.name, s.Value, d.unit, s.Q1, s.Median, s.Q3, s.N)
	}
	for _, h := range []struct {
		name, unit string
		s          summary
	}{{"raw_wall_s (unscaled)", "s", rep.RawWallS}, {"host probe", "ms", rep.ProbeMS}} {
		fmt.Fprintf(w, "  %-36s %14.6g %-12s q1 %.6g  q3 %.6g  n=%d\n", h.name, h.s.Median, h.unit, h.s.Q1, h.s.Q3, h.s.N)
	}
	if rep.PerLayer != nil {
		for _, d := range perLayer() {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, rep.PerLayer[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "results_sha256 %s %s\n", name, rep.ResultsSHA256)
}

// printContractLine writes the one-line JSON result: end-to-end values when
// untraced, per-layer metrics when traced.
func printContractLine(w io.Writer, rep *workloadReport, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer() {
			metrics[d.name] = value{rep.PerLayer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.name] = value{rep.EndToEnd[d.name].Value, d.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// stamp identifies the host and settings a result file was measured with.
type stamp struct {
	Host    host    `json:"host"`
	Commit  string  `json:"commit"`
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Traced  bool    `json:"traced"`
}

type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func newStamp(opt options) stamp {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return stamp{
		Host: host{
			Nproc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
		Commit:  commit,
		Seed:    opt.seed,
		Seconds: opt.seconds,
		Traced:  opt.trace,
	}
}

// resultFile is what -out writes and -compare reads. Each workload's entry
// carries its repeat count.
type resultFile struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
