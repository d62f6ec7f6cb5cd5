package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/sim"
)

// metricsDigest is the sha256 of the /metrics page for the campaign state
// TestMetricsPageDigest builds. A change to any family's name, help text,
// label set, sample order or value formatting moves it.
const metricsDigest = "ea80a7da7b53b1330d9e6e602c534d6c01ad8c4bd5169c0e290990662ca5f8af"

// TestMetricsPageDigest pins the whole /metrics page for a fixed
// quick-campaign state with every observer armed, so that every family
// emits samples: one workload under all four schemes, with the ledger,
// cycle attribution, the pagemap, the audit watchdog and a fault plan on.
func TestMetricsPageDigest(t *testing.T) {
	opts := QuickOptions()
	opts.Workloads = []string{"GemsFDTD"}
	opts.Ledger = true
	opts.CPI = true
	opts.PageMap = true
	opts.Audit = true
	opts.Faults = check.FaultPlan{Kind: check.FaultMetaThrash, Seed: 7}
	r := NewRunner(opts)
	for _, w := range opts.Workloads {
		for _, s := range []sim.Scheme{sim.SchemeStatic, sim.SchemePoM, sim.SchemeMemPod, sim.SchemePageSeer} {
			if _, err := r.Run(w, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	page := metricsPage(r)
	for _, family := range []string{
		"pageseer_campaign_runs", "pageseer_swaps_total", "pageseer_request_latency_cycles",
		"pageseer_cpi_cycles_total", "pageseer_structure_energy_nanojoules_total",
		"pageseer_faults_injected_total", "pageseer_hot_set_pages", "pageseer_watchdog_max_strikes",
	} {
		if !strings.Contains(page, "\n"+family) {
			t.Errorf("/metrics has no %s samples", family)
		}
	}
	sum := sha256.Sum256([]byte(page))
	if got := hex.EncodeToString(sum[:]); got != metricsDigest {
		t.Errorf("/metrics digest = %s, want %s\n%s", got, metricsDigest, page)
	}
}
