package workload

import "fmt"

// Profiles returns the 20 unique-benchmark workloads of Table III with
// their single-instance footprints and instance counts.
func Profiles() []Profile {
	return []Profile{
		// SPEC CPU2006 (memory-intensive subset used by the paper).
		// Gap values are calibrated so each benchmark lands in the
		// 10-40 LLC-MPKI band of the real programs: in this model nearly
		// every access misses the LLC (footprints dwarf the caches), so
		// MPKI ~= 1000/(Gap+1).
		{Name: "lbm", FootprintMB: 422, Instances: 4, Kind: Stream, Burst: 56, Gap: 30, WriteFrac: 0.40, Arrays: 3, Repeats: 6, WindowFrac: 0.15, ActiveFrac: 0.36},
		{Name: "milc", FootprintMB: 380, Instances: 4, Kind: PhaseShift, Burst: 48, Gap: 35, WriteFrac: 0.25, ReshufflePeriod: 6, Repeats: 6, WindowFrac: 0.15, ActiveFrac: 0.40},
		{Name: "bwaves", FootprintMB: 385, Instances: 4, Kind: Stream, Burst: 56, Gap: 35, WriteFrac: 0.30, Arrays: 4, Repeats: 6, WindowFrac: 0.15, ActiveFrac: 0.40},
		{Name: "GemsFDTD", FootprintMB: 502, Instances: 4, Kind: PhaseShift, Burst: 48, Gap: 30, WriteFrac: 0.35, ReshufflePeriod: 2, Repeats: 6, WindowFrac: 0.15, ActiveFrac: 0.30},
		{Name: "mcf", FootprintMB: 290, Instances: 8, Kind: Chase, Burst: 3, Gap: 25, WriteFrac: 0.15, HotFrac: 0.10},
		{Name: "libquantum", FootprintMB: 267, Instances: 6, Kind: Stream, Burst: 60, Gap: 25, WriteFrac: 0.20, Arrays: 1, Repeats: 6, WindowFrac: 0.15, ActiveFrac: 0.38},
		{Name: "omnetpp", FootprintMB: 164, Instances: 8, Kind: Chase, Burst: 4, Gap: 40, WriteFrac: 0.30, HotFrac: 0.15},
		{Name: "leslie3d", FootprintMB: 62, Instances: 12, Kind: Stream, Burst: 56, Gap: 40, WriteFrac: 0.30, Arrays: 3, Repeats: 8, WindowFrac: 0.15, ActiveFrac: 0.80},
		// Splash-3
		{Name: "fft", FootprintMB: 768, Instances: 4, Kind: Butterfly, Burst: 48, Gap: 30, WriteFrac: 0.35, Arrays: 2, Repeats: 6, WindowFrac: 0.15, ActiveFrac: 0.20},
		{Name: "luCon", FootprintMB: 520, Instances: 4, Kind: HotCold, Burst: 10, Gap: 40, WriteFrac: 0.30, HotFrac: 0.10},
		{Name: "luNCon", FootprintMB: 520, Instances: 4, Kind: HotCold, Burst: 8, Gap: 40, WriteFrac: 0.30, HotFrac: 0.15},
		{Name: "oceanCon", FootprintMB: 887, Instances: 4, Kind: Sweep, Burst: 56, Gap: 30, WriteFrac: 0.35, Repeats: 8, WindowFrac: 0.15, ActiveFrac: 0.16},
		{Name: "barnes", FootprintMB: 250, Instances: 8, Kind: HotCold, Burst: 6, Gap: 45, WriteFrac: 0.20, HotFrac: 0.05},
		{Name: "radix", FootprintMB: 648, Instances: 4, Kind: Scatter, Burst: 48, Gap: 25, WriteFrac: 0.50, Repeats: 6, WindowFrac: 0.15, ActiveFrac: 0.24},
		// CORAL
		{Name: "stream", FootprintMB: 457, Instances: 4, Kind: Stream, Burst: 60, Gap: 25, WriteFrac: 0.35, Arrays: 3, Repeats: 6, WindowFrac: 0.15, ActiveFrac: 0.32},
		{Name: "miniFE", FootprintMB: 480, Instances: 4, Kind: Sweep, Burst: 52, Gap: 30, WriteFrac: 0.30, Repeats: 8, WindowFrac: 0.15, ActiveFrac: 0.32},
		{Name: "LULESH", FootprintMB: 914, Instances: 4, Kind: Sweep, Burst: 52, Gap: 30, WriteFrac: 0.35, Repeats: 8, WindowFrac: 0.15, ActiveFrac: 0.16},
		{Name: "AMGmk", FootprintMB: 350, Instances: 4, Kind: Sweep, Burst: 48, Gap: 35, WriteFrac: 0.25, Repeats: 8, WindowFrac: 0.15, ActiveFrac: 0.42},
		{Name: "SNAP", FootprintMB: 441, Instances: 4, Kind: Sweep, Burst: 52, Gap: 30, WriteFrac: 0.30, Repeats: 8, WindowFrac: 0.15, ActiveFrac: 0.34},
		{Name: "MILCmk", FootprintMB: 480, Instances: 4, Kind: Sweep, Burst: 48, Gap: 30, WriteFrac: 0.25, Repeats: 8, WindowFrac: 0.15, ActiveFrac: 0.32},
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// profiles is the table ProfileByName searches, built once: Profiles
// returns a fresh copy for callers that may modify it.
var profiles = Profiles()

// Mix is one of the paper's mixed-benchmark workloads: four different
// benchmarks on four cores.
type Mix struct {
	Name    string
	Members [4]string
}

// Mixes returns the six mixes of Table III.
func Mixes() []Mix {
	return []Mix{
		{Name: "mix1", Members: [4]string{"lbm", "LULESH", "SNAP", "leslie3d"}},
		{Name: "mix2", Members: [4]string{"AMGmk", "luCon", "radix", "barnes"}},
		{Name: "mix3", Members: [4]string{"miniFE", "oceanCon", "barnes", "AMGmk"}},
		{Name: "mix4", Members: [4]string{"LULESH", "milc", "miniFE", "stream"}},
		{Name: "mix5", Members: [4]string{"luCon", "radix", "oceanCon", "barnes"}},
		{Name: "mix6", Members: [4]string{"libquantum", "lbm", "mcf", "bwaves"}},
	}
}

// MixByName finds a mix, reporting whether name is one. A miss allocates
// nothing: every Build of a benchmark workload asks here first.
func MixByName(name string) (Mix, bool) {
	for _, m := range Mixes() {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// AllWorkloadNames returns the 26 workload identifiers in Table III order.
func AllWorkloadNames() []string {
	var out []string
	for _, p := range Profiles() {
		out = append(out, p.Name)
	}
	for _, m := range Mixes() {
		out = append(out, m.Name)
	}
	return out
}

// Suite classifies a workload name for per-suite aggregation (Figures 7, 8
// and 11 report suite averages).
func Suite(name string) string {
	switch name {
	case "lbm", "milc", "bwaves", "GemsFDTD", "mcf", "libquantum", "omnetpp", "leslie3d":
		return "SPEC"
	case "fft", "luCon", "luNCon", "oceanCon", "barnes", "radix":
		return "Splash-3"
	case "stream", "miniFE", "LULESH", "AMGmk", "SNAP", "MILCmk":
		return "CORAL"
	default:
		return "Mixes"
	}
}
