// Command benchguard compares two campaign bench records (the JSON written
// by paper-figures -benchjson) and fails when simulator throughput has
// regressed beyond a tolerance. It is the tier-1 perf gate:
//
//	go run ./cmd/paper-figures -quick -all -quiet -benchjson head.json
//	go run ./cmd/benchguard -baseline BENCH_campaign.json -head head.json
//
// The headline metric is the geometric mean over matched (workload, scheme)
// runs of head events_per_sec / baseline events_per_sec — per-run
// throughput is what the engine work targets, and the geomean over the
// whole grid damps single-run wall-clock noise. The aggregate campaign
// throughput is reported alongside for context but does not gate (it folds
// in scheduling overlap, which the -j flag and host load change freely).
//
// With -warnonly the comparison reports instead of gates: a shortfall past
// the tolerance prints a warning but exits 0. The Makefile uses this to
// track the swap-provenance ledger's overhead (ledger-on vs ledger-off
// quick campaign, 5% target) without making an optional sink a hard gate.
//
// With -wall the per-run metric switches to wall_seconds and the ratio is
// baseline/head — head's wall-clock speedup. Use it when head's event
// counts are incomparable to the baseline's, e.g. a sampled-execution
// campaign (detailed events fire only inside the sample windows). In this
// mode head runs are matched against the baseline's detailed entries only,
// so the speedup is always relative to full-detail execution.
//
// Sampled-mode entries (sample_windows > 0 in the JSON) never match
// detailed entries in the default events_per_sec mode: the matching key
// includes the sampling geometry, so a mixed record like
// BENCH_campaign.json gates detailed-vs-detailed and sampled-vs-sampled
// separately.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type runMetric struct {
	Workload      string  `json:"workload"`
	Scheme        string  `json:"scheme"`
	WallSeconds   float64 `json:"wall_seconds"`
	EventsFired   uint64  `json:"events_fired"`
	EventsPerSec  float64 `json:"events_per_sec"`
	SampleWindows uint64  `json:"sample_windows"`
	SampleWindow  uint64  `json:"sample_window"`
	SampleWarmup  uint64  `json:"sample_warmup"`
}

type campaignBench struct {
	Generated    string      `json:"generated"`
	Note         string      `json:"note"`
	NumCPU       int         `json:"num_cpu"`
	Runs         []runMetric `json:"runs"`
	TotalEvents  uint64      `json:"total_events"`
	EventsPerSec float64     `json:"events_per_sec"`
}

func load(path string) (campaignBench, error) {
	var b campaignBench
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Runs) == 0 {
		return b, fmt.Errorf("%s: no runs recorded", path)
	}
	return b, nil
}

// key identifies a run for matching. Sampled runs carry their window
// geometry in the key: a sampled run and a detailed run of the same
// (workload, scheme) measure different things, and the events_per_sec gate
// must never compare one against the other by accident when a record (like
// BENCH_campaign.json) holds both kinds of entries.
func key(m runMetric) string {
	k := m.Workload + "/" + m.Scheme
	if m.SampleWindows > 0 {
		k += fmt.Sprintf("@sampled-%dx%d-w%d", m.SampleWindows, m.SampleWindow, m.SampleWarmup)
	}
	return k
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_campaign.json", "committed baseline bench record")
		headPath     = flag.String("head", "", "freshly generated bench record to check (required)")
		tolerance    = flag.Float64("tolerance", 0.10, "maximum allowed geomean events_per_sec regression (0.10 = 10%)")
		verbose      = flag.Bool("v", false, "print every matched run, not just regressions")
		warnOnly     = flag.Bool("warnonly", false, "report a regression past the tolerance as a warning but exit 0 (overhead tracking, not gating)")
		label        = flag.String("label", "", "comparison label for the report (e.g. \"ledger-on overhead\")")
		wall         = flag.Bool("wall", false, "compare per-run wall_seconds instead of events_per_sec (ratio = baseline/head, i.e. head's speedup); for modes like sampled execution whose event counts are incomparable")
	)
	flag.Parse()
	if *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -head is required")
		os.Exit(2)
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	head, err := load(*headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	// In -wall mode the point is cross-mode: head (e.g. a sampled campaign)
	// is measured against the baseline's *detailed* runs, so sampled
	// baseline entries are dropped and matching falls back to plain
	// (workload, scheme). In the default events_per_sec mode the full key —
	// including sampling geometry — keeps the modes strictly apart.
	base := make(map[string]runMetric, len(baseline.Runs))
	for _, m := range baseline.Runs {
		if *wall {
			if m.SampleWindows > 0 {
				continue
			}
			base[m.Workload+"/"+m.Scheme] = m
			continue
		}
		base[key(m)] = m
	}

	type row struct {
		key   string
		ratio float64
	}
	var rows []row
	logSum, matched := 0.0, 0
	for _, h := range head.Runs {
		k := key(h)
		lookup := k
		if *wall {
			lookup = h.Workload + "/" + h.Scheme
		}
		b, ok := base[lookup]
		if !ok {
			continue
		}
		var r float64
		if *wall {
			if b.WallSeconds <= 0 || h.WallSeconds <= 0 {
				continue
			}
			r = b.WallSeconds / h.WallSeconds
		} else {
			if b.EventsPerSec <= 0 || h.EventsPerSec <= 0 {
				continue
			}
			r = h.EventsPerSec / b.EventsPerSec
		}
		logSum += math.Log(r)
		matched++
		rows = append(rows, row{k, r})
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no (workload, scheme) runs in common between baseline and head")
		os.Exit(2)
	}
	geomean := math.Exp(logSum / float64(matched))

	sort.Slice(rows, func(i, j int) bool { return rows[i].ratio < rows[j].ratio })
	floor := 1.0 - *tolerance
	name := "benchguard"
	if *label != "" {
		name = "benchguard [" + *label + "]"
	}
	for _, r := range rows {
		if *verbose || r.ratio < floor {
			fmt.Printf("  %-28s %6.2fx\n", r.key, r.ratio)
		}
	}
	metric := "events_per_sec ratio"
	if *wall {
		metric = "wall-clock speedup"
	}
	fmt.Printf("%s: %d runs matched, geomean %s %.3fx (floor %.3fx)\n",
		name, matched, metric, geomean, floor)
	if !*wall && baseline.EventsPerSec > 0 && head.EventsPerSec > 0 {
		fmt.Printf("%s: aggregate campaign throughput %.0f -> %.0f events/sec (%.2fx, informational)\n",
			name, baseline.EventsPerSec, head.EventsPerSec, head.EventsPerSec/baseline.EventsPerSec)
	}
	if geomean < floor {
		if *warnOnly {
			fmt.Fprintf(os.Stderr, "%s: WARN — throughput %.1f%% below baseline (target < %.0f%%); not gating\n",
				name, (1-geomean)*100, *tolerance*100)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: FAIL — throughput regressed %.1f%% (> %.0f%% tolerance) vs %s\n",
			name, (1-geomean)*100, *tolerance*100, *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("%s: ok\n", name)
}
