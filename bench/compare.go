package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json -compare reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles prints, for each workload and end-to-end metric, both values
// with their repeats' quartiles and a verdict against the metric's bound,
// and reports whether any metric regressed. A metric whose repeats spread
// wider than its bound on either side is unresolved, not unchanged.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) (bool, error) {
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return false, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return false, fmt.Errorf("%s: %w", boundsPath, err)
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}

	sa, sb := a.Stamp, b.Stamp
	if sa.Host != sb.Host {
		fmt.Fprintf(w, "WARNING: hosts differ: A %+v, B %+v\n", sa.Host, sb.Host)
	}
	if sa.Seed != sb.Seed || sa.Seconds != sb.Seconds {
		fmt.Fprintf(w, "WARNING: settings differ: A seed=%d seconds=%g, B seed=%d seconds=%g\n", sa.Seed, sa.Seconds, sb.Seed, sb.Seconds)
	}
	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n", pathA, sa.Commit, pathB, sb.Commit)

	regressed := false
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s (A %d repeats, B %d repeats; host probe median A %.4g ms, B %.4g ms)\n",
			wl.name, ra.Repeats, rb.Repeats, ra.ProbeMS.Median, rb.ProbeMS.Median)
		if ra.ResultsSHA256 != rb.ResultsSHA256 {
			fmt.Fprintln(w, "  results_sha256 differs: the simulated machine changed")
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "  failed runs: A %d, B %d\n", ra.Failed, rb.Failed)
		}
		for _, m := range bj.EndToEnd {
			ma, okA := ra.EndToEnd[m.Name]
			mb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "  %-18s missing\n", m.Name)
				continue
			}
			verdict := judge(ma, mb, m.Better, m.Bound)
			if verdict == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(w, "  %-18s A %.6g [%.6g %.6g %.6g]  B %.6g [%.6g %.6g %.6g] %s  %+.1f%%  bound %.0f%%  %s\n",
				m.Name, ma.Value, ma.Q1, ma.Median, ma.Q3, mb.Value, mb.Q1, mb.Median, mb.Q3, m.Unit,
				100*(mb.Value/ma.Value-1), 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}

// judge classifies B against A for a metric whose better direction and
// bound (a share of A's value) are given.
func judge(a, b summary, better string, bound float64) string {
	if a.Value == 0 {
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value
	if better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread() > bound || b.spread() > bound:
		return "unresolved"
	case worse > bound:
		return "REGRESSION"
	case worse < -bound:
		return "improved"
	}
	return "within bound"
}
