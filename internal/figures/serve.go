package figures

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"pageseer/internal/obs"
	"pageseer/internal/obs/attrib"
	"pageseer/internal/sim"
	"pageseer/internal/stats"
)

// RunState is one campaign run's live introspection snapshot: identity,
// completion state, and (once finished) either its full Results or the
// failure message. The introspection server serialises these on /runs.
type RunState struct {
	Workload    string       `json:"workload"`
	Scheme      string       `json:"scheme"`
	Done        bool         `json:"done"`
	Failed      bool         `json:"failed,omitempty"`
	Error       string       `json:"error,omitempty"`
	WallSeconds float64      `json:"wall_seconds,omitempty"`
	Results     *sim.Results `json:"results,omitempty"`
}

// Snapshot reports every campaign run the Runner has begun, in canonical
// campaign order: in-flight runs appear with Done=false, completed runs
// carry their Results (successes) or error text (failures). Safe to call
// concurrently with a running campaign — a run's Results are only read
// after its entry is closed.
func (r *Runner) Snapshot() []RunState {
	var states []RunState
	seen := make(map[runKey]bool)
	add := func(k runKey) {
		if seen[k] {
			return
		}
		r.mu.Lock()
		e, ok := r.cache[k]
		r.mu.Unlock()
		if !ok {
			return
		}
		seen[k] = true
		st := RunState{
			Workload: k.workload,
			Scheme:   schemeLabel(k.scheme, k.disableBW),
		}
		select {
		case <-e.done:
			st.Done = true
			st.WallSeconds = e.wall.Seconds()
			if e.err != nil {
				st.Failed = true
				st.Error = e.err.Error()
			} else {
				res := e.res
				st.Results = &res
			}
		default:
		}
		states = append(states, st)
	}
	for _, k := range r.keys(AllNeeds()) {
		add(k)
	}
	// Runs outside the canonical campaign key set (the CPI-stack table's
	// static baseline, ad-hoc schemes driven through pageseer-sim -serve)
	// follow, in the order they began.
	r.mu.Lock()
	began := append([]runKey(nil), r.began...)
	r.mu.Unlock()
	for _, k := range began {
		add(k)
	}
	return states
}

// NewIntrospectionHandler builds the live campaign introspection handler
// paper-figures serves behind -serve: a text progress page on /, the full
// per-run JSON snapshot on /runs, Prometheus metrics (campaign progress,
// per-run effectiveness, fault-injector and watchdog counters) on /metrics,
// and the standard pprof profiles under /debug/pprof/.
func NewIntrospectionHandler(r *Runner) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, progressPage(r))
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, metricsPage(r))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// progressPage renders the human-facing campaign status.
func progressPage(r *Runner) string {
	states := r.Snapshot()
	var done, failed, inflight int
	for _, s := range states {
		switch {
		case !s.Done:
			inflight++
		case s.Failed:
			failed++
		default:
			done++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pageseer campaign: %d done, %d failed, %d in flight (%d begun)\n\n",
		done, failed, inflight, len(states))
	for _, s := range states {
		switch {
		case !s.Done:
			fmt.Fprintf(&b, "  ...  %-12s %-16s\n", s.Workload, s.Scheme)
		case s.Failed:
			fmt.Fprintf(&b, "  FAIL %-12s %-16s %s\n", s.Workload, s.Scheme, s.Error)
		default:
			res := s.Results
			fmt.Fprintf(&b, "  ok   %-12s %-16s ipc=%.3f ammat=%.0f wall=%.1fs",
				s.Workload, s.Scheme, res.IPC, res.AMMAT, s.WallSeconds)
			if eff := res.Effectiveness; eff.TotalStarted() > 0 {
				fmt.Fprintf(&b, " swaps=%d acc=%.2f cov=%.2f",
					eff.TotalStarted(), eff.Accuracy, eff.Coverage)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// metricsPage renders the Prometheus text exposition. Metric families are
// emitted in a fixed order and runs in canonical campaign order, so the
// page is deterministic for a given campaign state.
func metricsPage(r *Runner) string {
	states := r.Snapshot()
	var done, failed, inflight float64
	for _, s := range states {
		switch {
		case !s.Done:
			inflight++
		case s.Failed:
			failed++
		default:
			done++
		}
	}
	var b strings.Builder
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge("pageseer_campaign_runs", "Campaign runs by state.")
	fmt.Fprintf(&b, "pageseer_campaign_runs{state=\"done\"} %g\n", done)
	fmt.Fprintf(&b, "pageseer_campaign_runs{state=\"failed\"} %g\n", failed)
	fmt.Fprintf(&b, "pageseer_campaign_runs{state=\"inflight\"} %g\n", inflight)

	ok := states[:0:0]
	for _, s := range states {
		if s.Done && !s.Failed {
			ok = append(ok, s)
		}
	}

	gauge("pageseer_run_ipc", "Aggregate IPC of a completed run.")
	for _, s := range ok {
		fmt.Fprintf(&b, "pageseer_run_ipc{%s} %g\n", runLabels(s), s.Results.IPC)
	}
	gauge("pageseer_run_ammat", "Average main-memory access time (CPU cycles).")
	for _, s := range ok {
		fmt.Fprintf(&b, "pageseer_run_ammat{%s} %g\n", runLabels(s), s.Results.AMMAT)
	}

	counter("pageseer_swaps_total", "Ledger-tracked swaps by trigger and outcome.")
	for _, s := range ok {
		eff := s.Results.Effectiveness
		for t := obs.Trigger(0); t < obs.NumTriggers; t++ {
			if eff.Started[t] == 0 {
				continue
			}
			for _, oc := range []struct {
				name string
				n    uint64
			}{
				{"useful", eff.Useful[t]},
				{"unused", eff.Unused[t]},
				{"open", eff.Open[t]},
			} {
				fmt.Fprintf(&b, "pageseer_swaps_total{%s,trigger=%q,outcome=%q} %d\n",
					runLabels(s), t.String(), oc.name, oc.n)
			}
		}
	}
	gauge("pageseer_swap_accuracy", "Useful swaps / started swaps.")
	for _, s := range ok {
		fmt.Fprintf(&b, "pageseer_swap_accuracy{%s} %g\n", runLabels(s), s.Results.Effectiveness.Accuracy)
	}
	gauge("pageseer_swap_coverage", "Demand accesses landing on swapped-in units / all demand accesses.")
	for _, s := range ok {
		fmt.Fprintf(&b, "pageseer_swap_coverage{%s} %g\n", runLabels(s), s.Results.Effectiveness.Coverage)
	}
	counter("pageseer_swap_wasted_bytes_total", "Transfer bytes spent on swaps evicted unused, by module.")
	for _, s := range ok {
		eff := s.Results.Effectiveness
		fmt.Fprintf(&b, "pageseer_swap_wasted_bytes_total{%s,module=\"dram\"} %d\n", runLabels(s), eff.WastedDRAMBytes)
		fmt.Fprintf(&b, "pageseer_swap_wasted_bytes_total{%s,module=\"nvm\"} %d\n", runLabels(s), eff.WastedNVMBytes)
	}

	// Per-source demand-latency distributions as real Prometheus histograms:
	// cumulative _bucket series with log2 `le` bounds straight from the
	// simulator's fixed-size histograms, not just the percentile gauges.
	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n",
		"pageseer_request_latency_cycles",
		"Demand-request HMC service latency by serving source (CPU cycles).",
		"pageseer_request_latency_cycles")
	for _, s := range ok {
		lh := s.Results.LatencyHist
		for src := obs.LatSource(0); src < obs.NumLatSources; src++ {
			h := lh.H[src]
			if h.Count == 0 {
				continue
			}
			var cum uint64
			for bkt := 0; bkt < obs.HistBuckets-1; bkt++ {
				if h.Counts[bkt] == 0 {
					continue
				}
				cum += h.Counts[bkt]
				hi, _ := obs.BucketUpper(bkt)
				fmt.Fprintf(&b, "pageseer_request_latency_cycles_bucket{%s,source=%q,le=%q} %d\n",
					runLabels(s), src.String(), strconv.FormatUint(hi, 10), cum)
			}
			fmt.Fprintf(&b, "pageseer_request_latency_cycles_bucket{%s,source=%q,le=\"+Inf\"} %d\n",
				runLabels(s), src.String(), h.Count)
			fmt.Fprintf(&b, "pageseer_request_latency_cycles_sum{%s,source=%q} %d\n",
				runLabels(s), src.String(), h.Sum)
			fmt.Fprintf(&b, "pageseer_request_latency_cycles_count{%s,source=%q} %d\n",
				runLabels(s), src.String(), h.Count)
		}
	}

	// Cycle-attribution counters (campaigns run with Options.CPI): the raw
	// material of the CPI stacks, one counter per trigger class x component.
	counter("pageseer_cpi_cycles_total", "Attributed blame cycles by trigger class and component.")
	for _, s := range ok {
		cs := s.Results.CPIStack
		for cl := attrib.Class(0); cl < attrib.NumClasses; cl++ {
			st := cs.Class[cl]
			for c := attrib.Component(0); c < attrib.NumComponents; c++ {
				if st.Comp[c] == 0 {
					continue
				}
				fmt.Fprintf(&b, "pageseer_cpi_cycles_total{%s,class=%q,component=%q} %d\n",
					runLabels(s), cl.String(), c.String(), st.Comp[c])
			}
		}
	}
	counter("pageseer_cpi_requests_total", "Attributed retired demand requests by trigger class.")
	for _, s := range ok {
		cs := s.Results.CPIStack
		for cl := attrib.Class(0); cl < attrib.NumClasses; cl++ {
			if cs.Class[cl].Requests == 0 {
				continue
			}
			fmt.Fprintf(&b, "pageseer_cpi_requests_total{%s,class=%q} %d\n",
				runLabels(s), cl.String(), cs.Class[cl].Requests)
		}
	}
	counter("pageseer_cpi_correval_cycles_total", "PageSeer correlation-evaluation cycles (off the demand path).")
	for _, s := range ok {
		if s.Results.CPIStack.CorrEvals == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_cpi_correval_cycles_total{%s} %d\n",
			runLabels(s), s.Results.CPIStack.CorrEvalCycles)
	}

	counter("pageseer_structure_energy_nanojoules_total", "Table II dynamic energy spent in the SRAM structures, by structure group.")
	for _, s := range ok {
		res := s.Results
		e := stats.Energy(res.RemapCache, res.PCTc, res.Ctl.DataDemand)
		if e.TotalAccess == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_structure_energy_nanojoules_total{%s,structure=\"prtc\"} %g\n", runLabels(s), e.PRTcNanoJ)
		fmt.Fprintf(&b, "pageseer_structure_energy_nanojoules_total{%s,structure=\"pctc\"} %g\n", runLabels(s), e.PCTcNanoJ)
		fmt.Fprintf(&b, "pageseer_structure_energy_nanojoules_total{%s,structure=\"all\"} %g\n", runLabels(s), e.TotalNanoJ)
	}
	counter("pageseer_structure_accesses_total", "SRAM structure accesses charged by the energy model.")
	for _, s := range ok {
		res := s.Results
		e := stats.Energy(res.RemapCache, res.PCTc, res.Ctl.DataDemand)
		if e.TotalAccess == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_structure_accesses_total{%s} %d\n", runLabels(s), e.TotalAccess)
	}

	counter("pageseer_faults_injected_total", "Faults the deterministic injector actually injected, by kind.")
	for _, s := range ok {
		f := s.Results.Faults
		for _, kv := range []struct {
			kind string
			n    uint64
		}{
			{"swap_start_blocked", f.SwapStartsBlocked},
			{"meta_miss_forced", f.MetaMissesForced},
			{"issue_stall", f.IssueStalls},
			{"storm_touch", f.StormTouches},
		} {
			if kv.n == 0 {
				continue
			}
			fmt.Fprintf(&b, "pageseer_faults_injected_total{%s,kind=%q} %d\n", runLabels(s), kv.kind, kv.n)
		}
	}
	// Address-space telemetry (campaigns run with Options.PageMap): churn,
	// wear, and hot-set size from the per-page table's digest.
	counter("pageseer_page_flaps_total", "Pagemap flap events: K DRAM<->NVM round trips completed inside the sliding window.")
	for _, s := range ok {
		if s.Results.PageMap.UniquePages == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_page_flaps_total{%s} %d\n", runLabels(s), s.Results.PageMap.FlapEvents)
	}
	counter("pageseer_nvm_wear_writes_total", "NVM line-writes charged by the pagemap wear model (demand, writeback, swap transfer, functional).")
	for _, s := range ok {
		if s.Results.PageMap.UniquePages == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_nvm_wear_writes_total{%s} %d\n", runLabels(s), s.Results.PageMap.NVMWearWrites)
	}
	gauge("pageseer_hot_set_pages", "Smallest page count covering the given fraction of all accesses.")
	for _, s := range ok {
		pm := s.Results.PageMap
		if pm.UniquePages == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_hot_set_pages{%s,coverage=\"p50\"} %d\n", runLabels(s), pm.HotSet50)
		fmt.Fprintf(&b, "pageseer_hot_set_pages{%s,coverage=\"p90\"} %d\n", runLabels(s), pm.HotSet90)
		fmt.Fprintf(&b, "pageseer_hot_set_pages{%s,coverage=\"p99\"} %d\n", runLabels(s), pm.HotSet99)
	}

	counter("pageseer_watchdog_checks_total", "Liveness watchdog progress samples taken.")
	for _, s := range ok {
		if s.Results.Watchdog.Checks == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_watchdog_checks_total{%s} %d\n", runLabels(s), s.Results.Watchdog.Checks)
	}
	counter("pageseer_watchdog_strikes_total", "Consecutive no-progress watchdog samples at the final check.")
	for _, s := range ok {
		if s.Results.Watchdog.Checks == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_watchdog_strikes_total{%s} %d\n", runLabels(s), s.Results.Watchdog.Strikes)
	}
	gauge("pageseer_watchdog_max_strikes", "Worst consecutive no-progress watchdog run observed.")
	for _, s := range ok {
		if s.Results.Watchdog.Checks == 0 {
			continue
		}
		fmt.Fprintf(&b, "pageseer_watchdog_max_strikes{%s} %d\n", runLabels(s), s.Results.Watchdog.MaxStrikes)
	}
	return b.String()
}

// runLabels renders a run's identifying Prometheus label pair.
func runLabels(s RunState) string {
	return fmt.Sprintf("workload=%q,scheme=%q", s.Workload, s.Scheme)
}
