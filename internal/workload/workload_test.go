package workload

import (
	"sort"
	"testing"
	"testing/quick"

	"pageseer/internal/mem"
)

func TestProfilesMatchTableIII(t *testing.T) {
	ps := Profiles()
	if len(ps) != 20 {
		t.Fatalf("got %d profiles, want 20", len(ps))
	}
	want := map[string]struct {
		mb, inst int
	}{
		"lbm": {422, 4}, "milc": {380, 4}, "bwaves": {385, 4},
		"GemsFDTD": {502, 4}, "mcf": {290, 8}, "libquantum": {267, 6},
		"omnetpp": {164, 8}, "leslie3d": {62, 12}, "fft": {768, 4},
		"luCon": {520, 4}, "luNCon": {520, 4}, "oceanCon": {887, 4},
		"barnes": {250, 8}, "radix": {648, 4}, "stream": {457, 4},
		"miniFE": {480, 4}, "LULESH": {914, 4}, "AMGmk": {350, 4},
		"SNAP": {441, 4}, "MILCmk": {480, 4},
	}
	for _, p := range ps {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %q", p.Name)
			continue
		}
		if p.FootprintMB != w.mb || p.Instances != w.inst {
			t.Errorf("%s: footprint/instances = %d/%d, want %d/%d",
				p.Name, p.FootprintMB, p.Instances, w.mb, w.inst)
		}
	}
}

// TestZeroAllocMixLookupMiss: looking a benchmark name up as a mix, as
// every Build of a benchmark workload does, allocates nothing.
func TestZeroAllocMixLookupMiss(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		if _, ok := MixByName("GemsFDTD"); ok {
			t.Fatal("GemsFDTD found as a mix")
		}
	})
	if allocs != 0 {
		t.Fatalf("a mix-lookup miss allocates %.1f times, want 0", allocs)
	}
}

func TestMixesMatchTableIII(t *testing.T) {
	ms := Mixes()
	if len(ms) != 6 {
		t.Fatalf("got %d mixes, want 6", len(ms))
	}
	m6, ok := MixByName("mix6")
	if !ok {
		t.Fatal("mix6 not found")
	}
	want := [4]string{"libquantum", "lbm", "mcf", "bwaves"}
	if m6.Members != want {
		t.Fatalf("mix6 = %v, want %v", m6.Members, want)
	}
	for _, m := range ms {
		for _, b := range m.Members {
			if _, err := ProfileByName(b); err != nil {
				t.Errorf("mix %s references unknown benchmark %s", m.Name, b)
			}
		}
	}
}

func TestAllWorkloadNames26(t *testing.T) {
	names := AllWorkloadNames()
	if len(names) != 26 {
		t.Fatalf("got %d workloads, want 26", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate workload %q", n)
		}
		seen[n] = true
	}
}

func TestSuiteClassification(t *testing.T) {
	cases := map[string]string{
		"lbm": "SPEC", "fft": "Splash-3", "LULESH": "CORAL", "mix3": "Mixes",
	}
	for n, want := range cases {
		if got := Suite(n); got != want {
			t.Errorf("Suite(%s) = %s, want %s", n, got, want)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ProfileByName("mcf")
	g1 := NewGenerator(p, 8<<20, 7)
	g2 := NewGenerator(p, 8<<20, 7)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a, b)
		}
	}
	g3 := NewGenerator(p, 8<<20, 8)
	same := true
	for i := 0; i < 100; i++ {
		if g1.Next() != g3.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratorsStayInFootprint(t *testing.T) {
	foot := uint64(4 << 20)
	for _, p := range Profiles() {
		g := NewGenerator(p, foot, 1)
		for i := 0; i < 5000; i++ {
			a := g.Next()
			if a.VA < vaBase || uint64(a.VA-vaBase) >= foot {
				t.Fatalf("%s: VA %#x outside footprint", p.Name, uint64(a.VA))
			}
		}
	}
}

func TestStreamHasSequentialFlurries(t *testing.T) {
	p, _ := ProfileByName("libquantum")
	g := NewGenerator(p, 4<<20, 1)
	samePage := 0
	var prev mem.VPN
	for i := 0; i < 2000; i++ {
		a := g.Next()
		vpn := mem.VPageOf(a.VA)
		if i > 0 && vpn == prev {
			samePage++
		}
		prev = vpn
	}
	// A streaming benchmark revisits the same page in long runs.
	if samePage < 1000 {
		t.Fatalf("stream locality too low: %d/2000 same-page transitions", samePage)
	}
}

func TestSweepWindowRevisitsInOrder(t *testing.T) {
	// Sweeps are phased: a window of the active region is traversed
	// in order, Repeats times, before the window slides — giving the PCT
	// the recurring leader->follower sequences it learns.
	p, _ := ProfileByName("miniFE")
	foot := uint64(256 * mem.PageSize)
	g := NewGenerator(p, foot, 1)
	visits := map[mem.VPN]int{}
	var order []mem.VPN
	for i := 0; i < 40000; i++ {
		vpn := mem.VPageOf(g.Next().VA)
		if len(order) == 0 || order[len(order)-1] != vpn {
			order = append(order, vpn)
		}
		visits[vpn]++
	}
	// Pages of the first window must be revisited many times (Repeats
	// passes), not touched once.
	first := order[0]
	if visits[first] < p.repeats() {
		t.Fatalf("window page visited %d times, want >= %d", visits[first], p.repeats())
	}
	// Page successors are deterministic: after page X the sweep visits the
	// same page Y the vast majority of the time (within a pass) — exactly
	// the leader->follower repeatability the PCT learns. (Identities are
	// scrambled across the VA space, so successors are not X+1.)
	succ := map[mem.VPN]mem.VPN{}
	stable := 0
	for i := 1; i < len(order); i++ {
		prev, cur := order[i-1], order[i]
		if want, seen := succ[prev]; seen {
			if want == cur {
				stable++
			}
		} else {
			succ[prev] = cur
		}
	}
	repeats := len(order) - 1 - len(succ)
	if repeats > 0 && float64(stable)/float64(repeats) < 0.8 {
		t.Fatalf("only %d/%d repeated transitions kept their successor", stable, repeats)
	}
}

func TestHotColdIsSkewed(t *testing.T) {
	p, _ := ProfileByName("barnes")
	foot := uint64(256 * mem.PageSize)
	g := NewGenerator(p, foot, 3)
	counts := map[mem.VPN]int{}
	n := 20000
	for i := 0; i < n; i++ {
		counts[mem.VPageOf(g.Next().VA)]++
	}
	// The hottest 10% of pages by observed count must take far more than
	// 10% of accesses (the hot identities are scrambled across the VA
	// space, so rank by count rather than by index).
	var byCount []int
	for _, c := range counts {
		byCount = append(byCount, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(byCount)))
	hot := 0
	for i := 0; i < len(byCount) && i < 26; i++ {
		hot += byCount[i]
	}
	if float64(hot)/float64(n) < 0.3 {
		t.Fatalf("hot 10%% of pages took only %.1f%% of accesses", 100*float64(hot)/float64(n))
	}
}

func TestWriteFractionRoughlyHonoured(t *testing.T) {
	p, _ := ProfileByName("radix") // 0.5 plus scatter stores
	g := NewGenerator(p, 4<<20, 1)
	writes := 0
	n := 10000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / float64(n)
	if frac < 0.3 || frac > 0.9 {
		t.Fatalf("radix write fraction %.2f outside [0.3,0.9]", frac)
	}
}

// Property: every generator, for any seed, produces line-aligned-enough
// addresses (within page), non-negative gaps bounded by 2*Gap, and never
// panics across kinds.
func TestGeneratorSanityProperty(t *testing.T) {
	profiles := Profiles()
	f := func(seed uint64, pick uint8) bool {
		p := profiles[int(pick)%len(profiles)]
		g := NewGenerator(p, 2<<20, seed)
		for i := 0; i < 500; i++ {
			a := g.Next()
			if a.Gap > uint32(2*p.Gap+2) {
				return false
			}
			if uint64(a.VA)%8 != 0 && uint64(a.VA)%uint64(mem.LineSize) != 0 {
				// all accesses are line-aligned in this model
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorPhasePathIndependence pins the property the sampled schedule
// (sim.Config.Sample) relies on when it hands a core back and forth between
// functional fast-forward and detailed execution: both paths consume the
// generator through the same Next() call, once per access, so the stream a
// core sees depends only on how many accesses it has retired — never on
// which phase retired them or where the handoff fell. Two identical
// generators are advanced the same total distance, one in a single pass and
// one in fuzzed phase-sized segments, and must emerge in identical states.
func TestGeneratorPhasePathIndependence(t *testing.T) {
	for _, name := range []string{"mcf", "GemsFDTD", "stream", "milc"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		single := NewGenerator(p, 8<<20, 3)
		phased := NewGenerator(p, 8<<20, 3)

		// Fuzzed handoff schedule: segment lengths from a fixed-seed LCG so
		// the boundaries land on arbitrary (but reproducible) offsets,
		// including zero-length phases (an empty gap or window).
		lcg := uint64(0x9E3779B97F4A7C15)
		total := 0
		for total < 20_000 {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			seg := int(lcg >> 56 % 97) // 0..96 accesses per phase
			for i := 0; i < seg; i++ {
				phased.Next()
			}
			total += seg
		}
		for i := 0; i < total; i++ {
			single.Next()
		}
		for i := 0; i < 1_000; i++ {
			a, b := single.Next(), phased.Next()
			if a != b {
				t.Fatalf("%s: streams diverged %d accesses after handoff: %+v vs %+v", name, i, a, b)
			}
		}
	}
}
