package sim

import (
	"testing"

	"pageseer/internal/cache"
	"pageseer/internal/cpu"
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
	"pageseer/internal/workload"
)

// The demand-path benches time the full per-access machinery — core pump,
// TLB/walker, cache hierarchy, memory controller — on three synthetic mixes
// that pin each hot sub-path: pure L1 hits (pump + TLB + one tag lookup),
// L3 hits (the miss chain through both private levels), and NVM misses
// (translation, LLC miss, controller routing, bank timing). ReportAllocs is
// the point: after the pooling work, steady-state allocs/op must be ~0.

// strideGen emits line-grained accesses cycling through a region, burst
// accesses per page, with a fixed instruction gap. Counter-based: no RNG, so
// the trace is identical every run.
type strideGen struct {
	base   mem.VAddr
	bytes  uint64
	stride uint64
	gap    uint32
	pos    uint64
}

func (g *strideGen) Next() workload.Access {
	va := g.base + mem.VAddr(g.pos)
	g.pos += g.stride
	if g.pos >= g.bytes {
		g.pos = 0
	}
	return workload.Access{VA: va, Gap: g.gap}
}

// benchSystem wires a single-core system around gen: the same component
// stack sim.Build assembles, scaled to DefaultConfig's laptop sizes (L1
// 4KB, L2 16KB, L3 64KB, DRAM 4MB, NVM 32MB), with the no-swap Static
// manager so the bench isolates the demand path from swap policy.
func benchSystem(gen workload.Generator, footprint uint64) (*engine.Sim, *cpu.Core) {
	layout := mem.Map{DRAMBytes: 4 << 20, NVMBytes: 32 << 20}
	osm := mem.NewOS(layout, layout.DRAMPages()/16)
	sm := engine.New()
	sm.Reserve(cpu.MaxOutstanding*4 + 256)
	ctl := hmc.NewController(sm, osm)
	hmc.NewStatic(ctl)

	l3cfg := cache.L3Config()
	l3cfg.SizeBytes = 64 << 10
	l3 := cache.New(sm, l3cfg, ctl)
	l2cfg := cache.L2Config()
	l2cfg.SizeBytes = 16 << 10
	l2 := cache.New(sm, l2cfg, l3)
	l1cfg := cache.L1Config()
	l1cfg.SizeBytes = 4 << 10
	l1 := cache.New(sm, l1cfg, l2)

	osm.NewProcess(1)
	m := mmu.New(sm, osm, 0, 1, mmu.DefaultConfig(), l2, nil)
	c := cpu.NewCore(sm, 0, 1, m, l1, gen)
	for off := uint64(0); off < footprint; off += mem.PageSize {
		osm.WalkVA(1, workload.VABase+mem.VAddr(off))
	}
	return sm, c
}

// runCore retires instr further instructions on c and drains the machine.
func runCore(b *testing.B, sm *engine.Sim, c *cpu.Core, instr uint64) {
	done := false
	c.RunTo(c.Stats().Instructions+instr, func(*cpu.Core) { done = true })
	for !done {
		if !sm.Step() {
			b.Fatal("event queue drained before the core finished")
		}
	}
	sm.Drain(0)
}

func benchDemandPath(b *testing.B, gen workload.Generator, footprint uint64) {
	sm, c := benchSystem(gen, footprint)
	// Warm caches, TLBs, event-queue capacity, and every transaction pool
	// before the timed region.
	runCore(b, sm, c, 50_000)
	const perIter = 2_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCore(b, sm, c, perIter)
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(sm.Fired())/elapsed, "events/sec")
		b.ReportMetric(float64(uint64(b.N)*perIter)/elapsed, "instr/sec")
	}
}

// BenchmarkDemandPathL1Hit: the whole footprint fits in L1 — every access
// is pump + L1-TLB hit + L1 tag hit, the shortest path in the simulator.
func BenchmarkDemandPathL1Hit(b *testing.B) {
	benchDemandPath(b, &strideGen{base: workload.VABase, bytes: 2 << 10, stride: mem.LineSize, gap: 3}, mem.PageSize)
}

// BenchmarkDemandPathL3Hit: a 32KB region misses L1 and L2 (4KB/16KB) but
// lives in the 64KB L3 — the private-level miss chain with MSHR traffic.
func BenchmarkDemandPathL3Hit(b *testing.B) {
	const region = 32 << 10
	benchDemandPath(b, &strideGen{base: workload.VABase, bytes: region, stride: mem.LineSize, gap: 3}, region)
}

// BenchmarkDemandPathNVMMiss: a 16MB footprint over 4MB of DRAM — page
// walks, LLC misses, and controller-routed accesses mostly served by NVM.
func BenchmarkDemandPathNVMMiss(b *testing.B) {
	const region = 16 << 20
	benchDemandPath(b, &strideGen{base: workload.VABase, bytes: region, stride: mem.PageSize / 4, gap: 3}, region)
}

// TestZeroAllocDemandBudget extends the allocguard gate from "disabled obs
// sinks allocate nothing" to a runtime budget over the whole machine: after
// warm-up, a full system (each swapping scheme, histograms attached) must
// stay under a hard ceiling of allocations per retired instruction. The
// pooled transaction records hold the steady state near zero; the budget
// leaves headroom only for structural growth (table resizes in the swap
// engine and hot-page tables, rare queue spills, MemPod's per-interval hot
// sets).
func TestZeroAllocDemandBudget(t *testing.T) {
	for _, scheme := range []Scheme{SchemePageSeer, SchemePoM, SchemeMemPod} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.InstrPerCore = 0 // phases driven manually below
			cfg.Warmup = 0
			sys, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys.runPhase(300_000)

			const chunk = 25_000
			allocs := testing.AllocsPerRun(4, func() { sys.runPhase(chunk) })
			perInstr := allocs / chunk

			// Ceiling: 1 allocation per 200 retired instructions. Before
			// the pooling work the demand path alone paid ~8
			// closure/record allocations per memory op (roughly 1 per 2
			// instructions at lbm's intensity) — two orders of magnitude
			// over this line.
			const ceiling = 0.005
			if perInstr > ceiling {
				t.Fatalf("steady state allocates %.5f per retired instruction (%.0f per %d-instr chunk), budget %.3f",
					perInstr, allocs, chunk, ceiling)
			}
			t.Logf("%.5f allocations per retired instruction", perInstr)
		})
	}
}
