// Package mmu models the per-core memory management unit: L1/L2 TLBs,
// page-walk caches for the intermediate translation levels, and a hardware
// page walker that reads the 4-level page tables through the cache
// hierarchy. It also implements PageSeer's one hardware change to the MMU:
// when a walk reaches the fourth level and the PTE address is known, the MMU
// sends a hint to the hybrid memory controller (Section III-B).
package mmu

import "pageseer/internal/mem"

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Entries int
	Ways    int
	Latency uint64
}

// L1TLBConfig returns the paper's L1 TLB: 64 entries, 4-way, 1 cycle.
func L1TLBConfig() TLBConfig { return TLBConfig{Entries: 64, Ways: 4, Latency: 1} }

// L2TLBConfig returns the paper's L2 TLB: 1024 entries, 12-way, 10 cycles.
// 1024 is not divisible by 12, so the model holds 85 sets x 12 ways = 1020
// entries, the closest realisable geometry.
func L2TLBConfig() TLBConfig { return TLBConfig{Entries: 1024, Ways: 12, Latency: 10} }

// TLB is a set-associative, PID-tagged translation cache. An entry's key
// packs its PID above the 36-bit VPN of a 48-bit virtual address; sets are
// indexed by the VPN alone.
type TLB struct {
	cfg  TLBConfig
	sets mem.Sets
	ppns []mem.PPN // indexed by way, parallel to sets

	hits   uint64
	misses uint64
}

// NewTLB builds a TLB; entry count is rounded down to sets*ways. It panics
// unless the TLB has between 1 and mem.MaxWays ways and at least one set.
func NewTLB(cfg TLBConfig) *TLB {
	t := &TLB{cfg: cfg, sets: mem.NewSets(cfg.Entries, cfg.Ways)}
	t.ppns = make([]mem.PPN, t.sets.Len())
	return t
}

// Config returns the TLB configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Capacity returns the realised entry count (sets x ways).
func (t *TLB) Capacity() int { return t.sets.Capacity() }

// Hits and Misses return lookup counters.
func (t *TLB) Hits() uint64   { return t.hits }
func (t *TLB) Misses() uint64 { return t.misses }

// key packs (pid, vpn) into one set-store key.
func key(pid int, vpn mem.VPN) uint64 { return uint64(pid)<<36 | uint64(vpn) }

// Lookup searches for (pid, vpn) and refreshes LRU on a hit.
func (t *TLB) Lookup(pid int, vpn mem.VPN) (mem.PPN, bool) {
	base := t.sets.Set(uint64(vpn))
	if w := t.sets.Find(base, key(pid, vpn)); w >= 0 {
		t.sets.Touch(base, w)
		t.hits++
		return t.ppns[w], true
	}
	t.misses++
	return 0, false
}

// Insert installs a translation, refreshing (pid, vpn)'s entry in place
// when it is resident and replacing the set's LRU entry otherwise.
func (t *TLB) Insert(pid int, vpn mem.VPN, ppn mem.PPN) {
	base, k := t.sets.Set(uint64(vpn)), key(pid, vpn)
	w := t.sets.Find(base, k)
	if w < 0 {
		w = t.sets.Victim(base)
	}
	t.sets.Fill(base, w, k)
	t.ppns[w] = ppn
}
