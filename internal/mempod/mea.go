// Package mempod reimplements MemPod (Prodromou et al., HPCA 2017) as
// configured by the PageSeer paper's Section IV-B: the memory is split into
// pods, each running the Majority Element Algorithm with 64 counters over
// its access stream; every 50us the MEA-identified hot NVM segments migrate
// to DRAM at 2KB granularity, with any-to-any remapping inside the pod, a
// 32KB remap cache, and (optimistically, as the paper grants) a zero-latency
// inverted mapping table.
package mempod

// MEA implements the Majority Element Algorithm of Karp, Papadimitriou and
// Shenker (counter-based frequent-element sketch): an element already
// tracked increments its counter; a new element takes a free counter; if
// none is free, every counter decrements (evicting zeros). Elements still
// tracked at the end of an interval are the frequent ones.
//
// The counters are two fixed arrays, the first n entries live: scanning 64
// keys costs less than hashing one, and an interval's Reset allocates
// nothing.
type MEA struct {
	keys   []uint64
	counts []uint32
	n      int

	Increments uint64
	Decrements uint64
}

// NewMEA builds a sketch with the given counter count (64 in the paper).
func NewMEA(capacity int) *MEA {
	return &MEA{keys: make([]uint64, capacity), counts: make([]uint32, capacity)}
}

// find returns e's counter index, or -1.
func (m *MEA) find(e uint64) int {
	for i, k := range m.keys[:m.n] {
		if k == e {
			return i
		}
	}
	return -1
}

// Observe feeds one element occurrence into the sketch.
func (m *MEA) Observe(e uint64) {
	if i := m.find(e); i >= 0 {
		m.counts[i]++
		m.Increments++
		return
	}
	if m.n < len(m.keys) {
		m.keys[m.n], m.counts[m.n] = e, 1
		m.n++
		m.Increments++
		return
	}
	m.Decrements++
	live := 0
	for i := 0; i < m.n; i++ {
		if c := m.counts[i]; c > 1 {
			m.keys[live], m.counts[live] = m.keys[i], c-1
			live++
		}
	}
	m.n = live
}

// Len returns the number of tracked elements.
func (m *MEA) Len() int { return m.n }

// Count returns e's current counter (0 if untracked).
func (m *MEA) Count(e uint64) uint32 {
	if i := m.find(e); i >= 0 {
		return m.counts[i]
	}
	return 0
}

// Frequent appends the tracked elements with count >= minCount to dst,
// unordered, and returns the extended slice.
func (m *MEA) Frequent(dst []uint64, minCount uint32) []uint64 {
	for i, c := range m.counts[:m.n] {
		if c >= minCount {
			dst = append(dst, m.keys[i])
		}
	}
	return dst
}

// Reset clears the sketch for the next interval.
func (m *MEA) Reset() { m.n = 0 }
