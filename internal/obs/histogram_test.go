package obs

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refPercentile is the brute-force rank statistic the histogram's
// Percentile is checked against: the ceil(p/100*n)-th smallest sample.
func refPercentile(sorted []uint64, p float64) uint64 {
	n := len(sorted)
	rank := int(float64(n) * p / 100)
	if float64(rank)*100 < float64(n)*p {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TestPercentileAgainstBruteForce: the histogram percentile must land in
// the same log2 bucket as the exact rank statistic over the raw samples,
// for several distributions (uniform, heavy-tailed, constant, with zeros).
func TestPercentileAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distros := map[string]func() uint64{
		"uniform-small": func() uint64 { return uint64(rng.Intn(500)) },
		"uniform-large": func() uint64 { return uint64(rng.Int63n(1 << 40)) },
		"heavy-tail":    func() uint64 { return uint64(100/(1+rng.Intn(99))) << uint(rng.Intn(20)) },
		"constant":      func() uint64 { return 42 },
		"zero-heavy": func() uint64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return uint64(rng.Intn(1000))
		},
	}
	for name, gen := range distros {
		var h Histogram
		samples := make([]uint64, 5000)
		for i := range samples {
			samples[i] = gen()
			h.Record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, p := range []float64{1, 10, 50, 90, 99, 99.9, 100} {
			got := h.Percentile(p)
			ref := refPercentile(samples, p)
			if bits.Len64(got) != bits.Len64(ref) {
				t.Errorf("%s p%v: got %d (bucket %d), brute-force %d (bucket %d)",
					name, p, got, bits.Len64(got), ref, bits.Len64(ref))
			}
		}
		if h.Max != samples[len(samples)-1] {
			t.Errorf("%s: Max = %d, want %d", name, h.Max, samples[len(samples)-1])
		}
		var sum uint64
		for _, v := range samples {
			sum += v
		}
		if h.Sum != sum || h.Count != uint64(len(samples)) {
			t.Errorf("%s: Sum/Count = %d/%d, want %d/%d", name, h.Sum, h.Count, sum, len(samples))
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Percentile(50); got != 0 {
		t.Fatalf("empty histogram p50 = %d, want 0", got)
	}
	if s := h.Summary(); s != (Dist{}) {
		t.Fatalf("empty histogram summary = %+v, want zero", s)
	}
}

// TestMergeAssociative: (a+b)+c == a+(b+c) == c+(b+a), and a merged
// histogram equals one built from the concatenated samples.
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := func(n int, shift uint) (Histogram, []uint64) {
		var h Histogram
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = uint64(rng.Intn(1000)) << shift
			h.Record(vs[i])
		}
		return h, vs
	}
	a, va := build(100, 0)
	b, vb := build(300, 8)
	c, vc := build(50, 20)

	left := a // copies: Histogram is a value type
	ab := a
	ab.Merge(b)
	abc1 := ab
	abc1.Merge(c)

	bc := b
	bc.Merge(c)
	abc2 := left
	abc2.Merge(bc)

	cb := c
	cb.Merge(b)
	abc3 := cb
	abc3.Merge(a)

	var all Histogram
	for _, vs := range [][]uint64{va, vb, vc} {
		for _, v := range vs {
			all.Record(v)
		}
	}
	for i, m := range []Histogram{abc1, abc2, abc3} {
		if !reflect.DeepEqual(m, all) {
			t.Fatalf("merge order %d differs from direct build:\n%+v\nvs\n%+v", i, m, all)
		}
	}
}

func TestLatencySetRoutesSources(t *testing.T) {
	l := &LatencySet{}
	l.Record(LatDRAM, 10)
	l.Record(LatNVM, 20)
	l.Record(LatNVM, 30)
	l.Record(LatBuf, 40)
	l.Record(LatPTE, 50)
	s := l.Summary()
	if s.DRAM.Count != 1 || s.NVM.Count != 2 || s.Buf.Count != 1 || s.PTE.Count != 1 {
		t.Fatalf("per-source counts wrong: %+v", s)
	}
	if s.NVM.Max != 30 || s.DRAM.Max != 10 {
		t.Fatalf("per-source max wrong: %+v", s)
	}
}
