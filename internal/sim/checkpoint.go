package sim

import (
	"encoding/json"
	"errors"
	"fmt"

	"pageseer/internal/check"
	"pageseer/internal/ckpt"
)

// ErrPaused is returned by RunToQuiesce when the stop callback halted the
// run at a quiesce point. The system is quiesced — the event queue is empty
// and every component is at rest — so Snapshot is valid, and calling Run (or
// RunToQuiesce) again resumes from exactly that point.
var ErrPaused = errors.New("sim: run paused at quiesce point")

// Snapshot serializes the complete simulation state at a quiesce point: the
// resolved Config, the engine clock triple, the run cursor, every core with
// its trace generator, the MMUs, all three cache levels, the memory
// controller (swap engine, oracle, DRAM and NVM modules), the management
// scheme's warm structures, an OS verification digest, and the latency
// histograms. Restore rebuilds the system from the embedded Config and
// rehydrates this state; continuing the run then produces Results
// byte-identical to the uninterrupted run.
//
// Snapshot refuses a non-quiesced system (pending events, in-flight
// transactions) and configurations whose runtime state lives outside the
// checkpoint (see snapshotGate).
func (s *System) Snapshot() ([]byte, error) {
	if err := s.snapshotGate(); err != nil {
		return nil, err
	}
	if n := s.Sim.Pending(); n != 0 {
		return nil, fmt.Errorf("sim: %d event(s) pending; snapshot requires a quiesce point", n)
	}
	cfgJSON, err := json.Marshal(s.Cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: serializing config: %w", err)
	}
	w := ckpt.NewWriter()
	w.Section("sim.meta")
	w.String(string(cfgJSON))
	now, seq, fire := s.Sim.ClockState()
	w.U64(now)
	w.U64(seq)
	w.U64(fire)
	if err := s.writeCursor(w); err != nil {
		return nil, err
	}
	w.Section("sim.machine")
	for _, c := range s.Cores {
		if err := c.Snapshot(w); err != nil {
			return nil, err
		}
		if err := c.MMU().Snapshot(w); err != nil {
			return nil, err
		}
		if err := c.L1().Snapshot(w); err != nil {
			return nil, err
		}
	}
	for _, l2 := range s.L2s {
		if err := l2.Snapshot(w); err != nil {
			return nil, err
		}
	}
	if err := s.L3.Snapshot(w); err != nil {
		return nil, err
	}
	if err := s.Ctl.Snapshot(w); err != nil {
		return nil, err
	}
	if err := s.snapshotManager(w); err != nil {
		return nil, err
	}
	s.OS.SnapshotDigest(w)
	w.Section("sim.lat")
	for i := range s.lat.H {
		h := &s.lat.H[i]
		for _, c := range h.Counts {
			w.U64(c)
		}
		w.U64(h.Count)
		w.U64(h.Sum)
		w.U64(h.Max)
	}
	return w.Finish(), nil
}

// Restore rebuilds a System from a Snapshot payload: the embedded resolved
// Config drives a fresh Build (reconstructing topology, page tables, and
// pools deterministically), then the serialized mutable state is rehydrated
// and the engine clock re-established. The returned system continues the run
// from the snapshot's quiesce point via Run.
func Restore(data []byte) (*System, error) {
	r, err := ckpt.Open(data)
	if err != nil {
		return nil, err
	}
	r.Section("sim.meta")
	cfgJSON := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return nil, fmt.Errorf("sim: snapshot config: %w", err)
	}
	now, seq, fire := r.U64(), r.U64(), r.U64()
	sys, err := Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: rebuilding for restore: %w", err)
	}
	if err := sys.readCursor(r); err != nil {
		return nil, err
	}
	r.Section("sim.machine")
	for _, c := range sys.Cores {
		c.Restore(r)
		c.MMU().Restore(r)
		c.L1().Restore(r)
	}
	for _, l2 := range sys.L2s {
		l2.Restore(r)
	}
	sys.L3.Restore(r)
	sys.Ctl.Restore(r)
	sys.restoreManager(r)
	sys.OS.VerifyDigest(r)
	r.Section("sim.lat")
	for i := range sys.lat.H {
		h := &sys.lat.H[i]
		for j := range h.Counts {
			h.Counts[j] = r.U64()
		}
		h.Count = r.U64()
		h.Sum = r.U64()
		h.Max = r.U64()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rem := r.Remaining(); rem != 0 {
		return nil, fmt.Errorf("sim: %d unread byte(s) after restore — snapshot/build mismatch", rem)
	}
	sys.Sim.RestoreClock(now, seq, fire)
	return sys, nil
}

// snapshotGate refuses configurations whose runtime state lives outside the
// serialized machine: attached observability sinks (timeline samples, trace
// events, ledger records, attribution intervals), the audit watchdog, an armed fault injector (its RNG position is private),
// and unexported build hooks (custom managers, explicit PageSeer configs)
// that a restored Build cannot reconstruct from the serialized Config alone.
func (s *System) snapshotGate() error {
	cfg := &s.Cfg
	switch {
	case cfg.Obs.Trace || cfg.Obs.TimelineEvery > 0 || cfg.Obs.Ledger || cfg.Obs.CPI:
		return errors.New("sim: snapshot with observability sinks attached is not supported")
	case cfg.Obs.PageMap:
		return errors.New("sim: snapshot with the pagemap attached is not supported (per-page table and pending-swap handles are not serialized)")
	case cfg.Audit:
		return errors.New("sim: snapshot with the audit watchdog armed is not supported")
	case cfg.Faults != (check.FaultPlan{}):
		return errors.New("sim: snapshot with fault injection armed is not supported")
	case cfg.customManager != nil:
		return errors.New("sim: snapshot of a custom-managed system is not supported (factory not serializable)")
	case cfg.pageSeerCfg != nil:
		return errors.New("sim: snapshot with an explicit PageSeer config is not supported (override not serializable)")
	}
	return nil
}

// writeCursor serializes the run cursor: where in the schedule the next Run
// call resumes. The sampled cursor's merged Results travel as JSON — Go's
// float formatting is shortest-round-trip, so every float64 survives
// bit-exact — while the infinity-seeded IPC extrema go through the binary
// F64 (JSON cannot carry ±Inf).
func (s *System) writeCursor(w *ckpt.Writer) error {
	w.Section("sim.cursor")
	w.Int(s.phase)
	w.Bool(s.sc != nil)
	if s.sc == nil {
		return nil
	}
	c := s.sc
	w.Bool(c.probeDone)
	w.U64(c.window)
	w.U64(c.probe)
	w.U64(c.calInstr)
	w.U64(c.calCycles)
	w.U64(c.obsSwaps)
	w.U64(c.ffTotal)
	w.U64(c.swaps)
	w.F64(c.sumIPC)
	w.F64(c.sumIPC2)
	w.F64(c.minIPC)
	w.F64(c.maxIPC)
	merged, err := json.Marshal(c.merged)
	if err != nil {
		return fmt.Errorf("sim: serializing window accumulator: %w", err)
	}
	w.Bytes(merged)
	return nil
}

// readCursor rehydrates the run cursor written by writeCursor.
func (s *System) readCursor(r *ckpt.Reader) error {
	r.Section("sim.cursor")
	s.phase = r.Int()
	if !r.Bool() {
		s.sc = nil
		return r.Err()
	}
	c := &sampleCursor{}
	c.probeDone = r.Bool()
	c.window = r.U64()
	c.probe = r.U64()
	c.calInstr = r.U64()
	c.calCycles = r.U64()
	c.obsSwaps = r.U64()
	c.ffTotal = r.U64()
	c.swaps = r.U64()
	c.sumIPC = r.F64()
	c.sumIPC2 = r.F64()
	c.minIPC = r.F64()
	c.maxIPC = r.F64()
	merged := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if err := json.Unmarshal(merged, &c.merged); err != nil {
		return fmt.Errorf("sim: window accumulator: %w", err)
	}
	s.sc = c
	return nil
}

// snapshotManager dispatches to the installed scheme's Snapshot. Static has
// no mutable state; its marker still rides along so a scheme mismatch
// between snapshot and rebuild fails as a section error.
func (s *System) snapshotManager(w *ckpt.Writer) error {
	switch {
	case s.PageSeer != nil:
		return s.PageSeer.Snapshot(w)
	case s.PoM != nil:
		return s.PoM.Snapshot(w)
	case s.MemPod != nil:
		return s.MemPod.Snapshot(w)
	case s.CAMEO != nil:
		return s.CAMEO.Snapshot(w)
	}
	w.Section("static")
	return nil
}

func (s *System) restoreManager(r *ckpt.Reader) {
	switch {
	case s.PageSeer != nil:
		s.PageSeer.Restore(r)
	case s.PoM != nil:
		s.PoM.Restore(r)
	case s.MemPod != nil:
		s.MemPod.Restore(r)
	case s.CAMEO != nil:
		s.CAMEO.Restore(r)
	default:
		r.Section("static")
	}
}
