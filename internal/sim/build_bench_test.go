package sim

import "testing"

// BenchmarkBuild times sim.Build — the bench's setup_s — for the
// benchmark's four profiles under each scheme it builds, at DefaultConfig.
// Most of a Build is pre-touching the footprints through the page tables.
func BenchmarkBuild(b *testing.B) {
	for _, s := range layoutSchemes {
		for _, p := range layoutProfiles {
			cfg := DefaultConfig()
			cfg.Workload = p
			cfg.Scheme = s
			b.Run(string(s)+"/"+p, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// buildAllocBudget is the ceiling on heap allocations of one
// Build(DefaultConfig()) of GemsFDTD per scheme: the measured count (187,
// 195, 207 and 207 with Go 1.24) plus headroom. A per-page record such as a
// Go map beside the page tables, or one allocation per wheel slot, costs
// about a thousand more.
var buildAllocBudget = map[Scheme]float64{
	SchemeStatic:   250,
	SchemePoM:      260,
	SchemeMemPod:   270,
	SchemePageSeer: 270,
}

// TestZeroAllocBuildBudget holds Build's allocation count under
// buildAllocBudget. Part of the allocguard gate (run without -race;
// instrumentation allocates).
func TestZeroAllocBuildBudget(t *testing.T) {
	for _, s := range layoutSchemes {
		t.Run(string(s), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workload = "GemsFDTD"
			cfg.Scheme = s
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := Build(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if budget := buildAllocBudget[s]; allocs > budget {
				t.Fatalf("Build allocates %.0f times, budget %.0f", allocs, budget)
			}
			t.Logf("Build allocates %.0f times", allocs)
		})
	}
}
