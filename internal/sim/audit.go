package sim

import (
	"pageseer/internal/check"
	"pageseer/internal/mem"
	"pageseer/internal/obs"
)

// CheckInvariants audits the quiesced system after a run: the event queue is
// empty, every core retired its budget and drained its window, no cache or
// controller structure leaked a pooled record or an outstanding miss, the
// swap engine completed every op it started, the memory queues are empty,
// the manager's architectural state is self-consistent, and the demand
// counters balance (every data-demand request served exactly once, every
// core memory op turned into exactly one L1 access). It returns nil on a
// clean system or one error listing every violation (matching
// check.ErrAuditFailed under errors.Is).
//
// The audit reads state; it never mutates, schedules, or allocates on any
// simulated path — with Config.Audit off, none of this code runs at all.
func (s *System) CheckInvariants() error {
	a := &check.Audit{}
	a.Checkf(s.Sim.Pending() == 0,
		"engine: %d event(s) still queued after drain", s.Sim.Pending())

	var memOps, l1Accesses uint64
	for i, c := range s.Cores {
		st := c.Stats()
		a.Checkf(st.Done, "core %d: budget not retired at end of run", i)
		a.Checkf(c.Outstanding() == 0,
			"core %d: %d memory op(s) still in flight at quiescence", i, c.Outstanding())
		memOps += st.MemOps
		l1Accesses += c.L1().Stats().Accesses
		c.MMU().Audit(a)
		c.L1().Audit(a)
		s.L2s[i].Audit(a)
	}
	a.Checkf(memOps == l1Accesses,
		"cores: %d memory op(s) retired but %d L1 accesses recorded", memOps, l1Accesses)

	s.L3.Audit(a)
	s.Ctl.Audit(a) // the swap engine, memory modules, metadata caches and manager too
	s.led.Audit(a) // nil-safe: no-op without the provenance ledger
	// Blame conservation: every retired request's component cycles must sum
	// exactly to its end-to-end latency, per core and per trigger class.
	s.att.Audit(a) // nil-safe: no-op without cycle attribution
	s.auditPageMap(a)
	return a.Err()
}

// auditPageMap runs the address-space telemetry conservation laws: the
// pagemap's internal invariants (per-row swap-in/out vs residency delta,
// trigger-mix totals, read/write split), a cross-check of its per-source
// demand totals against the controller's served counters, and a row-by-row
// residency comparison against the manager's remap table (ground truth).
// The cross-checks need exact detailed accounting, so they are skipped in
// sampled mode, where fast-forward gaps retire accesses through the
// functional path (counted separately as FFReads/FFWrites) and swaps commit
// instantly without transfer traffic.
func (s *System) auditPageMap(a *check.Audit) {
	if s.pm == nil {
		return
	}
	s.pm.Audit(a)
	if s.Cfg.Sample != 0 {
		return
	}
	sum := s.pm.Summary()
	st := s.Ctl.Stats()
	a.Checkf(sum.DemandBySource[obs.LatDRAM] == st.ServedDRAM,
		"pagemap: %d DRAM demand accesses recorded but controller served %d",
		sum.DemandBySource[obs.LatDRAM], st.ServedDRAM)
	a.Checkf(sum.DemandBySource[obs.LatNVM] == st.ServedNVM,
		"pagemap: %d NVM demand accesses recorded but controller served %d",
		sum.DemandBySource[obs.LatNVM], st.ServedNVM)
	a.Checkf(sum.DemandBySource[obs.LatBuf] == st.ServedBuf,
		"pagemap: %d swap-buffer demand accesses recorded but controller served %d",
		sum.DemandBySource[obs.LatBuf], st.ServedBuf)
	a.Checkf(sum.DemandBySource[obs.LatPTE] == st.PTEServedByHMC,
		"pagemap: %d PTE-path accesses recorded but controller served %d",
		sum.DemandBySource[obs.LatPTE], st.PTEServedByHMC)
	mgr := s.Ctl.Manager()
	s.pm.AuditResidency(a, func(addr uint64) bool {
		return s.Ctl.Layout.IsDRAM(mgr.TranslateLine(mem.Addr(addr)))
	})
}
