package figures

import (
	"errors"
	"fmt"
	"strings"

	"pageseer/internal/obs"
	"pageseer/internal/obs/attrib"
	"pageseer/internal/sim"
)

// cpiSchemes is the CPI-stack comparison set. It prepends the static
// baseline to the Figure 14 trio: the whole point of the breakdown is to
// show which stall component a swap scheme buys its speedup from, and that
// needs the no-swapping NVM-bound baseline in the same table.
var cpiSchemes = []sim.Scheme{sim.SchemeStatic, sim.SchemePoM, sim.SchemeMemPod, sim.SchemePageSeer}

// CPIStackRow is one (workload, scheme) run's cycle-attribution digest plus
// the instruction count the stack normalises against. Scheme is the display
// label (the same one progress lines use).
type CPIStackRow struct {
	Workload     string         `json:"workload"`
	Scheme       string         `json:"scheme"`
	Instructions uint64         `json:"instructions"`
	Stack        attrib.Summary `json:"stack"`
}

// ErrNoCPI rejects CPI-stack aggregation over a campaign that ran without
// cycle attribution: every stack would be zero and the table would silently
// report a stall-free campaign.
var ErrNoCPI = errors.New("figures: CPI stacks require Config.Obs.CPI (campaign ran without cycle attribution)")

// CPIStackTable collects the per-run CPI stacks over the campaign's
// workloads for the static baseline and the Figure 14 comparison schemes.
// The static runs are not part of the standard campaign key set, so a
// prefetched campaign simulates them here on first use; everything else
// comes from the shared run cache.
func CPIStackTable(r *Runner) ([]CPIStackRow, error) {
	if !r.opts.Config.Obs.CPI {
		return nil, ErrNoCPI
	}
	var rows []CPIStackRow
	err := r.eachRun(cpiSchemes, func(wl string, sch sim.Scheme, res sim.Results) {
		rows = append(rows, CPIStackRow{Workload: wl, Scheme: string(sch), Instructions: res.Instructions, Stack: res.CPIStack})
	})
	return rows, err
}

// cpi returns cycles normalised to the row's instruction count.
func (r CPIStackRow) cpi(cycles uint64) float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(cycles) / float64(r.Instructions)
}

// CompCPI returns one component's attributed cycles per instruction, summed
// over trigger classes.
func (r CPIStackRow) CompCPI(c attrib.Component) float64 {
	return r.cpi(r.Stack.Total().Comp[c])
}

// NVMShare returns the NVM service component's share of the row's attributed
// request latency (CompCore excluded: it is compute, not stall). This is the
// headline the table exists for — a swap scheme that works shrinks it.
func (r CPIStackRow) NVMShare() float64 {
	tot := r.Stack.Total()
	var sum uint64
	for c := attrib.CompL1; c < attrib.NumComponents; c++ {
		sum += tot.Comp[c]
	}
	if sum == 0 {
		return 0
	}
	return float64(tot.Comp[attrib.CompNVM]) / float64(sum)
}

// RenderCPIStack renders the normalised CPI stacks: attributed cycles per
// instruction, grouped into display columns (the CSV/JSON exports carry all
// fifteen components ungrouped). "total" is the full attributed stack
// (compute base plus per-request blame); because per-request blame counts
// each request's whole latency, overlapping misses make the stack an upper
// bound on measured CPI, not equal to it — see DESIGN.md "Cycle accounting".
func RenderCPIStack(rows []CPIStackRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "CPI stacks: attributed cycles per instruction by blame component")
	fmt.Fprintf(&b, "  %-12s %-10s %7s %6s %6s %6s %6s %6s %6s %6s %6s %6s | %5s\n",
		"", "", "total", "core", "cache", "tlbwlk", "meta", "queue", "swpxfr", "buf", "dram", "nvm", "nvm%")
	for _, r := range rows {
		t := r.Stack.Total()
		var total uint64
		for c := attrib.Component(0); c < attrib.NumComponents; c++ {
			total += t.Comp[c]
		}
		cache := t.Comp[attrib.CompL1] + t.Comp[attrib.CompL2] + t.Comp[attrib.CompL3] + t.Comp[attrib.CompMSHR]
		tlbwalk := t.Comp[attrib.CompTLB] + t.Comp[attrib.CompWalk] + t.Comp[attrib.CompPTECache]
		meta := t.Comp[attrib.CompMeta] + t.Comp[attrib.CompRemap]
		fmt.Fprintf(&b, "  %-12s %-10s %7.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f | %4.1f%%\n",
			r.Workload, r.Scheme,
			r.cpi(total),
			r.CompCPI(attrib.CompCore), r.cpi(cache), r.cpi(tlbwalk), r.cpi(meta),
			r.CompCPI(attrib.CompMemQ), r.CompCPI(attrib.CompSwapXfer),
			r.CompCPI(attrib.CompSwapBuf), r.CompCPI(attrib.CompDRAM), r.CompCPI(attrib.CompNVM),
			100*r.NVMShare())
	}
	return b.String()
}

// CPIStackColumns is the CPI-stack table's CSV digest: run identity, the
// class-summed per-component cycle totals (raw cycles — normalise against
// instructions) and the machinery counters. Its JSON export
// (obs.WriteJSON) carries the complete attrib.Summary per run, including
// the per-trigger-class split the CSV sums away.
var CPIStackColumns = obs.Columns[CPIStackRow]{
	Header: func() []string {
		h := []string{"workload", "scheme", "instructions", "requests", "latency"}
		for c := attrib.Component(0); c < attrib.NumComponents; c++ {
			h = append(h, "cycles_"+strings.ReplaceAll(c.String(), "-", "_"))
		}
		return append(h, "unattributed", "correval_cycles", "correvals")
	}(),
	Record: func(r CPIStackRow) []string {
		t := r.Stack.Total()
		rec := []string{r.Workload, r.Scheme, obs.Uint(r.Instructions), obs.Uint(t.Requests), obs.Uint(t.Latency)}
		for c := attrib.Component(0); c < attrib.NumComponents; c++ {
			rec = append(rec, obs.Uint(t.Comp[c]))
		}
		return append(rec, obs.Uint(r.Stack.Unattributed), obs.Uint(r.Stack.CorrEvalCycles), obs.Uint(r.Stack.CorrEvals))
	},
}
