package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/obs/pagemap"
)

// goldenObsConfig is the observer golden run: GemsFDTD at a quick budget
// with every observer attached (ledger, cycle attribution, pagemap, trace).
// Its phase shifts drive all of PageSeer's trigger classes in a short run.
func goldenObsConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Workload = "GemsFDTD"
	cfg.InstrPerCore = 400_000
	cfg.Warmup = 250_000
	cfg.MaxCores = 4
	cfg.Obs.Ledger = true
	cfg.Obs.CPI = true
	cfg.Obs.PageMap = true
	cfg.Obs.Trace = true
	return cfg
}

func digest(t *testing.T, b []byte) string {
	t.Helper()
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return digest(t, b)
}

// traceDigest digests a Chrome-trace JSON document event by event, leaving
// out events named drop (none when drop is empty), and returns how many
// events were left out.
func traceDigest(t *testing.T, js []byte, drop string) (string, int) {
	t.Helper()
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &f); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	dropped := 0
	for _, e := range f.TraceEvents {
		if drop != "" {
			var ev struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(e, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Name == drop {
				dropped++
				continue
			}
		}
		h.Write(e)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), dropped
}

func pagemapRowsDigest(t *testing.T, sys *System) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pagemap.RowColumns.WriteCSV(&buf, sys.PageMap().Rows()); err != nil {
		t.Fatal(err)
	}
	return digest(t, buf.Bytes())
}

// TestGoldenObserverOutputs pins every observer's output on a quick run of
// each swapping scheme: the effectiveness digest, the raw provenance
// records, the per-page table, the CPI stack and the Chrome trace. A change
// to how swap-lifecycle events reach the observers must leave all of them
// byte-identical. PoM and MemPod traces are compared without their
// remap-commit instants, which only PageSeer's trace is pinned with.
func TestGoldenObserverOutputs(t *testing.T) {
	type golden struct {
		effectiveness, records, pagemapRows, cpiStack, trace string
	}
	want := map[Scheme]golden{
		SchemePoM:      {"98c1e9c1fec0144d", "e92c6d9f4672154b", "52838fe608304e45", "3bba680867f32d6c", "3367a8b34aeb0226"},
		SchemeMemPod:   {"a93f325ef21f2b58", "81c84446bee89eda", "351944c4d78486ca", "6ced01b35c979300", "f2f8838819d03ff2"},
		SchemePageSeer: {"ae83c17a272b431a", "1dd038e45e53eb30", "737471b2483740b9", "ddaafdd3b14b1a8e", "6f78d33fbbf41cc2"},
	}
	for _, sch := range Schemes() {
		sys, err := Build(goldenObsConfig(sch))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		var tr bytes.Buffer
		if err := sys.Tracer.WriteJSON(&tr); err != nil {
			t.Fatal(err)
		}
		got := golden{
			effectiveness: jsonDigest(t, res.Effectiveness),
			records:       jsonDigest(t, sys.Ledger().Records()),
			pagemapRows:   pagemapRowsDigest(t, sys),
			cpiStack:      jsonDigest(t, res.CPIStack),
		}
		if sch == SchemePageSeer {
			got.trace = digest(t, tr.Bytes())
		} else {
			got.trace, _ = traceDigest(t, tr.Bytes(), "remap-commit")
		}
		if got != want[sch] {
			t.Errorf("%s observer outputs changed:\n got %+v\nwant %+v", sch, got, want[sch])
		}
	}
}

// TestGoldenSampledPageMap pins the per-page table of a sampled PageSeer
// run, whose fast-forward gaps feed the pagemap through the functional
// access path.
func TestGoldenSampledPageMap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "GemsFDTD"
	cfg.InstrPerCore = 400_000
	cfg.Warmup = 250_000
	cfg.MaxCores = 4
	cfg.Sample = 8
	cfg.SampleWindow = 2000
	cfg.SampleWarmup = 2000
	cfg.Obs.PageMap = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := pagemapRowsDigest(t, sys), "b326d6f5845dadc5"; got != want {
		t.Errorf("sampled PageSeer pagemap rows changed: got %s want %s", got, want)
	}
}

// TestRefusedSwapStartsLeaveNoRecord covers the engine-refusal path for
// every scheme: under the swap-exhaustion fault the engine turns many
// starts away, and none of them may reach an observer. The ledger starts
// exactly the ops the engine accepted, and the end-of-run audit fails the
// run if a pagemap entry outlives it.
func TestRefusedSwapStartsLeaveNoRecord(t *testing.T) {
	for _, sch := range Schemes() {
		cfg := goldenObsConfig(sch)
		cfg.Obs.CPI, cfg.Obs.Trace = false, false
		cfg.Faults = check.FaultPlan{Kind: check.FaultSwapExhaustion, Seed: 1}
		cfg.Audit = true
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		if res.Swap.OpsRejected == 0 || res.Swap.OpsStarted == 0 {
			t.Fatalf("%s: fault refused %d and admitted %d starts; the refusal path is not exercised",
				sch, res.Swap.OpsRejected, res.Swap.OpsStarted)
		}
		if got, want := res.Effectiveness.TotalStarted(), res.Swap.OpsStarted; got != want {
			t.Errorf("%s: ledger started %d swaps, engine accepted %d", sch, got, want)
		}
	}
}

// TestRemapCommitPerSwap: every committed swap, whatever the scheme, marks
// its remap commit in the trace exactly once. The run has no warm-up, so
// the scheme's swap counter covers the whole trace.
func TestRemapCommitPerSwap(t *testing.T) {
	for _, sch := range Schemes() {
		cfg := goldenObsConfig(sch)
		cfg.Warmup = 0
		cfg.Obs = ObsOptions{Trace: true}
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		var tr bytes.Buffer
		if err := sys.Tracer.WriteJSON(&tr); err != nil {
			t.Fatal(err)
		}
		_, commits := traceDigest(t, tr.Bytes(), "remap-commit")
		if swaps := sys.completedSwaps(); swaps == 0 || uint64(commits) != swaps {
			t.Errorf("%s: %d remap-commit instants for %d committed swaps", sch, commits, swaps)
		}
	}
}
