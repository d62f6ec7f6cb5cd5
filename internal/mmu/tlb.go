// Package mmu models the per-core memory management unit: L1/L2 TLBs,
// page-walk caches for the intermediate translation levels, and a hardware
// page walker that reads the 4-level page tables through the cache
// hierarchy. It also implements PageSeer's one hardware change to the MMU:
// when a walk reaches the fourth level and the PTE address is known, the MMU
// sends a hint to the hybrid memory controller (Section III-B).
package mmu

import (
	"fmt"

	"pageseer/internal/mem"
)

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

type tlbEntry struct {
	pid   int
	vpn   mem.VPN
	ppn   mem.PPN
	valid bool
}

// TLB is a set-associative, PID-tagged translation cache.
type TLB struct {
	cfg     TLBConfig
	entries []tlbEntry // set s holds entries[s*ways : (s+1)*ways]
	order   []mem.LRU  // each set's recency order
	ways    int
	setMask uint64 // len(order)-1 when a power of two, else 0 (use modulo)

	hits   uint64
	misses uint64
}

// NewTLB builds a TLB; entry count is rounded down to sets*ways. It panics
// unless the TLB has between 1 and mem.MaxWays ways.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Ways < 1 || cfg.Ways > mem.MaxWays {
		panic(fmt.Sprintf("mmu: TLB with %d ways: want 1 to %d", cfg.Ways, mem.MaxWays))
	}
	nSets := cfg.Entries / cfg.Ways
	if nSets < 1 {
		nSets = 1
	}
	t := &TLB{
		cfg:     cfg,
		entries: make([]tlbEntry, nSets*cfg.Ways),
		order:   make([]mem.LRU, nSets),
		ways:    cfg.Ways,
	}
	if nSets&(nSets-1) == 0 {
		t.setMask = uint64(nSets - 1)
	}
	for i := range t.order {
		t.order[i] = mem.NewLRU(cfg.Ways)
	}
	return t
}

// Config returns the TLB configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Capacity returns the realised entry count (sets x ways).
func (t *TLB) Capacity() int { return len(t.entries) }

// Hits and Misses return lookup counters.
func (t *TLB) Hits() uint64   { return t.hits }
func (t *TLB) Misses() uint64 { return t.misses }

// set returns the index of vpn's set and that set's entries.
func (t *TLB) set(vpn mem.VPN) (int, []tlbEntry) {
	var s int
	if m := t.setMask; m != 0 {
		s = int(uint64(vpn) & m)
	} else {
		s = int(uint64(vpn) % uint64(len(t.order)))
	}
	return s, t.entries[s*t.ways : (s+1)*t.ways]
}

// Lookup searches for (pid, vpn) and refreshes LRU on a hit.
func (t *TLB) Lookup(pid int, vpn mem.VPN) (mem.PPN, bool) {
	set, s := t.set(vpn)
	for i := range s {
		if s[i].valid && s[i].pid == pid && s[i].vpn == vpn {
			t.order[set] = t.order[set].Touch(i, t.ways)
			t.hits++
			return s[i].ppn, true
		}
	}
	t.misses++
	return 0, false
}

// Insert installs a translation, refreshing (pid, vpn)'s entry in place
// when it is resident and replacing the set's LRU entry otherwise.
func (t *TLB) Insert(pid int, vpn mem.VPN, ppn mem.PPN) {
	set, s := t.set(vpn)
	w := t.order[set].Victim()
	for i := range s {
		if s[i].valid && s[i].pid == pid && s[i].vpn == vpn {
			w = i
			break
		}
	}
	s[w] = tlbEntry{pid: pid, vpn: vpn, ppn: ppn, valid: true}
	t.order[set] = t.order[set].Touch(w, t.ways)
}
