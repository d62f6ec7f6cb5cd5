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

// Snapshot reports every run the Runner has begun, canonical campaign keys
// first and the others in the order they began: in-flight runs appear with
// Done=false, completed runs carry their Results (successes) or error text
// (failures). Safe to call concurrently with a running campaign — a run's
// Results are only read after its entry is closed.
func (r *Runner) Snapshot() []RunState {
	var states []RunState
	for _, k := range r.begun() {
		st := RunState{Workload: k.Workload, Scheme: k.Label()}
		if e, done := r.entry(k); done {
			st.Done = true
			st.WallSeconds = e.wall.Seconds()
			if e.err != nil {
				st.Failed = true
				st.Error = e.err.Error()
			} else {
				res := e.res
				st.Results = &res
			}
		}
		states = append(states, st)
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
	header := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	header("pageseer_campaign_runs", "gauge", "Campaign runs by state.")
	fmt.Fprintf(&b, "pageseer_campaign_runs{state=\"done\"} %g\n", done)
	fmt.Fprintf(&b, "pageseer_campaign_runs{state=\"failed\"} %g\n", failed)
	fmt.Fprintf(&b, "pageseer_campaign_runs{state=\"inflight\"} %g\n", inflight)

	for _, f := range metricFamilies {
		header(f.name, f.typ, f.help)
		for _, s := range states {
			if !s.Done || s.Failed {
				continue
			}
			f.samples(s.Results, func(suffix string, v any, labels ...string) {
				fmt.Fprintf(&b, "%s%s{%s", f.name, suffix, runLabels(s))
				for i := 0; i < len(labels); i += 2 {
					fmt.Fprintf(&b, ",%s=%q", labels[i], labels[i+1])
				}
				fmt.Fprintf(&b, "} %v\n", v)
			})
		}
	}
	return b.String()
}

// emitFunc writes one sample of a metric family: the series name is the
// family's name plus suffix, the labels are the run's workload and scheme
// followed by the given key/value pairs, and v prints with %v (%g for
// floats, %d for integers).
type emitFunc func(suffix string, v any, labels ...string)

// metricFamily is one Prometheus family on /metrics: its name, type and
// help text, and the samples it contributes for one completed run.
type metricFamily struct {
	name, typ, help string
	samples         func(res *sim.Results, emit emitFunc)
}

// metricFamilies lists every per-run family in page order.
var metricFamilies = []metricFamily{
	{"pageseer_run_ipc", "gauge", "Aggregate IPC of a completed run.",
		func(res *sim.Results, emit emitFunc) { emit("", res.IPC) }},
	{"pageseer_run_ammat", "gauge", "Average main-memory access time (CPU cycles).",
		func(res *sim.Results, emit emitFunc) { emit("", res.AMMAT) }},

	{"pageseer_swaps_total", "counter", "Ledger-tracked swaps by trigger and outcome.",
		func(res *sim.Results, emit emitFunc) {
			eff := res.Effectiveness
			for t := obs.Trigger(0); t < obs.NumTriggers; t++ {
				if eff.Started[t] == 0 {
					continue
				}
				emit("", eff.Useful[t], "trigger", t.String(), "outcome", "useful")
				emit("", eff.Unused[t], "trigger", t.String(), "outcome", "unused")
				emit("", eff.Open[t], "trigger", t.String(), "outcome", "open")
			}
		}},
	{"pageseer_swap_accuracy", "gauge", "Useful swaps / started swaps.",
		func(res *sim.Results, emit emitFunc) { emit("", res.Effectiveness.Accuracy) }},
	{"pageseer_swap_coverage", "gauge", "Demand accesses landing on swapped-in units / all demand accesses.",
		func(res *sim.Results, emit emitFunc) { emit("", res.Effectiveness.Coverage) }},
	{"pageseer_swap_wasted_bytes_total", "counter", "Transfer bytes spent on swaps evicted unused, by module.",
		func(res *sim.Results, emit emitFunc) {
			emit("", res.Effectiveness.WastedDRAMBytes, "module", "dram")
			emit("", res.Effectiveness.WastedNVMBytes, "module", "nvm")
		}},

	// Per-source demand-latency distributions as real Prometheus
	// histograms: cumulative _bucket series with log2 `le` bounds straight
	// from the simulator's fixed-size histograms.
	{"pageseer_request_latency_cycles", "histogram", "Demand-request HMC service latency by serving source (CPU cycles).",
		func(res *sim.Results, emit emitFunc) {
			for src := obs.LatSource(0); src < obs.NumLatSources; src++ {
				h := res.LatencyHist.H[src]
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
					emit("_bucket", cum, "source", src.String(), "le", strconv.FormatUint(hi, 10))
				}
				emit("_bucket", h.Count, "source", src.String(), "le", "+Inf")
				emit("_sum", h.Sum, "source", src.String())
				emit("_count", h.Count, "source", src.String())
			}
		}},

	// Cycle-attribution counters (campaigns run with Config.Obs.CPI): the raw
	// material of the CPI stacks, one counter per trigger class x component.
	{"pageseer_cpi_cycles_total", "counter", "Attributed blame cycles by trigger class and component.",
		func(res *sim.Results, emit emitFunc) {
			for cl := attrib.Class(0); cl < attrib.NumClasses; cl++ {
				for c := attrib.Component(0); c < attrib.NumComponents; c++ {
					if n := res.CPIStack.Class[cl].Comp[c]; n != 0 {
						emit("", n, "class", cl.String(), "component", c.String())
					}
				}
			}
		}},
	{"pageseer_cpi_requests_total", "counter", "Attributed retired demand requests by trigger class.",
		func(res *sim.Results, emit emitFunc) {
			for cl := attrib.Class(0); cl < attrib.NumClasses; cl++ {
				if n := res.CPIStack.Class[cl].Requests; n != 0 {
					emit("", n, "class", cl.String())
				}
			}
		}},
	{"pageseer_cpi_correval_cycles_total", "counter", "PageSeer correlation-evaluation cycles (off the demand path).",
		func(res *sim.Results, emit emitFunc) {
			if res.CPIStack.CorrEvals != 0 {
				emit("", res.CPIStack.CorrEvalCycles)
			}
		}},

	{"pageseer_structure_energy_nanojoules_total", "counter", "Table II dynamic energy spent in the SRAM structures, by structure group.",
		func(res *sim.Results, emit emitFunc) {
			if e := stats.Energy(res.RemapCache, res.PCTc, res.Ctl.DataDemand); e.TotalAccess != 0 {
				emit("", e.PRTcNanoJ, "structure", "prtc")
				emit("", e.PCTcNanoJ, "structure", "pctc")
				emit("", e.TotalNanoJ, "structure", "all")
			}
		}},
	{"pageseer_structure_accesses_total", "counter", "SRAM structure accesses charged by the energy model.",
		func(res *sim.Results, emit emitFunc) {
			if e := stats.Energy(res.RemapCache, res.PCTc, res.Ctl.DataDemand); e.TotalAccess != 0 {
				emit("", e.TotalAccess)
			}
		}},

	{"pageseer_faults_injected_total", "counter", "Faults the deterministic injector actually injected, by kind.",
		func(res *sim.Results, emit emitFunc) {
			f := res.Faults
			for _, kv := range []struct {
				kind string
				n    uint64
			}{
				{"swap_start_blocked", f.SwapStartsBlocked},
				{"meta_miss_forced", f.MetaMissesForced},
				{"issue_stall", f.IssueStalls},
				{"storm_touch", f.StormTouches},
			} {
				if kv.n != 0 {
					emit("", kv.n, "kind", kv.kind)
				}
			}
		}},

	// Address-space telemetry (campaigns run with Config.Obs.PageMap): churn,
	// wear, and hot-set size from the per-page table's digest.
	{"pageseer_page_flaps_total", "counter", "Pagemap flap events: K DRAM<->NVM round trips completed inside the sliding window.",
		func(res *sim.Results, emit emitFunc) {
			if res.PageMap.UniquePages != 0 {
				emit("", res.PageMap.FlapEvents)
			}
		}},
	{"pageseer_nvm_wear_writes_total", "counter", "NVM line-writes charged by the pagemap wear model (demand, writeback, swap transfer, functional).",
		func(res *sim.Results, emit emitFunc) {
			if res.PageMap.UniquePages != 0 {
				emit("", res.PageMap.NVMWearWrites)
			}
		}},
	{"pageseer_hot_set_pages", "gauge", "Smallest page count covering the given fraction of all accesses.",
		func(res *sim.Results, emit emitFunc) {
			if pm := res.PageMap; pm.UniquePages != 0 {
				emit("", pm.HotSet50, "coverage", "p50")
				emit("", pm.HotSet90, "coverage", "p90")
				emit("", pm.HotSet99, "coverage", "p99")
			}
		}},

	{"pageseer_watchdog_checks_total", "counter", "Liveness watchdog progress samples taken.",
		func(res *sim.Results, emit emitFunc) {
			if res.Watchdog.Checks != 0 {
				emit("", res.Watchdog.Checks)
			}
		}},
	{"pageseer_watchdog_strikes_total", "counter", "Consecutive no-progress watchdog samples at the final check.",
		func(res *sim.Results, emit emitFunc) {
			if res.Watchdog.Checks != 0 {
				emit("", res.Watchdog.Strikes)
			}
		}},
	{"pageseer_watchdog_max_strikes", "gauge", "Worst consecutive no-progress watchdog run observed.",
		func(res *sim.Results, emit emitFunc) {
			if res.Watchdog.Checks != 0 {
				emit("", res.Watchdog.MaxStrikes)
			}
		}},
}

// runLabels renders a run's identifying Prometheus label pair.
func runLabels(s RunState) string {
	return fmt.Sprintf("workload=%q,scheme=%q", s.Workload, s.Scheme)
}
