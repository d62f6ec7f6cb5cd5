package obs

import "math/bits"

// HistBuckets is the bucket count of a log2 histogram: bucket 0 holds the
// value 0 and bucket b (1..64) holds values in [2^(b-1), 2^b-1], so any
// uint64 maps to exactly one bucket via bits.Len64.
const HistBuckets = 65

// Histogram is a log2-bucketed distribution of uint64 samples (latencies in
// CPU cycles). Recording is one array increment and three scalar updates —
// no allocation, ever — so it is cheap enough to sit on the per-request hot
// path of the memory controller.
type Histogram struct {
	Counts [HistBuckets]uint64
	Count  uint64
	Sum    uint64
	Max    uint64
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.Counts[bits.Len64(v)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Merge accumulates o into h. Merging is associative and commutative, so
// per-shard histograms can be combined in any order.
func (h *Histogram) Merge(o Histogram) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// Mean returns the exact average of the recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Percentile returns the p-th percentile (0 < p <= 100). The sample of rank
// ceil(p/100 * Count) is located exactly by bucket; within the bucket the
// value is linearly interpolated across the bucket's range, clamped to the
// recorded maximum. The result therefore always lands in the same log2
// bucket as the true rank statistic. Returns 0 when empty.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(float64(h.Count) * p / 100)
	if float64(rank)*100 < float64(h.Count)*p {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum uint64
	for b, c := range h.Counts {
		if c == 0 {
			continue
		}
		if rank > cum+c {
			cum += c
			continue
		}
		lo, hi := bucketBounds(b)
		if hi > h.Max {
			hi = h.Max
		}
		// Position of the rank within the bucket, interpolated across
		// [lo, hi]: pos/c of the way through.
		pos := rank - cum
		v := lo + uint64(float64(hi-lo)*float64(pos)/float64(c))
		if v > hi {
			v = hi
		}
		return v
	}
	return h.Max
}

// bucketBounds returns the inclusive value range of bucket b.
func bucketBounds(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 0
	}
	lo = uint64(1) << (b - 1)
	if b == 64 {
		return lo, ^uint64(0)
	}
	return lo, (uint64(1) << b) - 1
}

// Dist is the summary of one histogram, as surfaced in sim.Results.
type Dist struct {
	Count uint64
	Mean  float64
	P50   uint64
	P90   uint64
	P99   uint64
	Max   uint64
}

// Summary reduces the histogram to its headline statistics.
func (h *Histogram) Summary() Dist {
	return Dist{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Max:   h.Max,
	}
}

// LatSource identifies which structure serviced a demand request: the
// controller's service accounting (Figure 7), latency split and Demand events.
type LatSource int

// The four service sources the AMMAT decomposition distinguishes.
const (
	LatDRAM LatSource = iota
	LatNVM
	LatBuf // swap buffer
	LatPTE // MMU Driver PTE cache
	NumLatSources
)

// String names the source for reports.
func (s LatSource) String() string {
	switch s {
	case LatDRAM:
		return "DRAM"
	case LatNVM:
		return "NVM"
	case LatBuf:
		return "swap-buf"
	case LatPTE:
		return "pte-cache"
	}
	return "?"
}

// LatencySet is the controller's per-source latency histogram bank.
type LatencySet struct {
	H [NumLatSources]Histogram
}

// Record adds one demand-request latency under the given source.
func (l *LatencySet) Record(src LatSource, cycles uint64) {
	l.H[src].Record(cycles)
}

// Reset zeroes every histogram (e.g. after warm-up).
func (l *LatencySet) Reset() {
	*l = LatencySet{}
}

// Summary reduces the set to per-source headline statistics.
func (l *LatencySet) Summary() LatencySummary {
	return LatencySummary{
		DRAM: l.H[LatDRAM].Summary(),
		NVM:  l.H[LatNVM].Summary(),
		Buf:  l.H[LatBuf].Summary(),
		PTE:  l.H[LatPTE].Summary(),
	}
}

// LatencySummary carries the per-source demand-latency percentiles into
// sim.Results (Figure 9's AMMAT decomposition, as distributions).
type LatencySummary struct {
	DRAM Dist
	NVM  Dist
	Buf  Dist
	PTE  Dist
}
