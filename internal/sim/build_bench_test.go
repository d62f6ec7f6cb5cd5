package sim

import (
	"runtime"
	"testing"
)

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
// Build(DefaultConfig()) of GemsFDTD per scheme: the measured count (178,
// 186, 199 and 204 with Go 1.24) plus headroom. A per-page record such as a
// Go map beside the page tables, or one allocation per wheel slot, costs
// about a thousand more.
var buildAllocBudget = map[Scheme]float64{
	SchemeStatic:   245,
	SchemePoM:      255,
	SchemeMemPod:   265,
	SchemePageSeer: 270,
}

// buildBytesBudget is the ceiling on bytes one such Build allocates: the
// measured figure (about 243, 334, 337 and 521 KiB) plus under 25 KiB. Any
// per-frame table sized to all 9,216 physical frames instead of the frames
// the run can name costs more than that: PoM's or MemPod's 2KB remap about
// 80 KiB more, PageSeer's remap about 40 KiB, one of its HPTs about 40 KiB
// and its PCT with the Filter index about 160 KiB.
var buildBytesBudget = map[Scheme]uint64{
	SchemeStatic:   265 << 10,
	SchemePoM:      355 << 10,
	SchemeMemPod:   360 << 10,
	SchemePageSeer: 545 << 10,
}

// TestZeroAllocBuildBudget holds Build's allocation count under
// buildAllocBudget and its allocated bytes under buildBytesBudget. Part
// of the allocguard gate (run without -race; instrumentation allocates).
func TestZeroAllocBuildBudget(t *testing.T) {
	for _, s := range layoutSchemes {
		t.Run(string(s), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workload = "GemsFDTD"
			cfg.Scheme = s
			build := func() {
				if _, err := Build(cfg); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, build)
			if budget := buildAllocBudget[s]; allocs > budget {
				t.Fatalf("Build allocates %.0f times, budget %.0f", allocs, budget)
			}
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				build()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			if budget := buildBytesBudget[s]; bytes > budget {
				t.Fatalf("Build allocates %d bytes, budget %d", bytes, budget)
			}
			t.Logf("Build allocates %.0f times, %d bytes", allocs, bytes)
		})
	}
}
