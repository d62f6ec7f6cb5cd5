package sim

import (
	"fmt"
	"strings"
)

// RunError is the structured failure of one simulation run: instead of a
// panic unwinding through the campaign harness, Run recovers the cause and
// wraps it with the run's identity (scheme, workload, seed), where the event
// loop stood (cycle, events fired, events pending, swaps in flight), the
// recovered stack, and a rendered crashdump. The figures runner treats a
// *RunError as a per-run gap; the CLIs write the crashdump to disk.
type RunError struct {
	Scheme   Scheme
	Workload string
	Seed     uint64

	Cycle         uint64
	Events        uint64 // fired over the system's lifetime
	Pending       int    // events still queued when the run died
	SwapsInFlight int

	Cause error
	// Stack is the goroutine stack captured at recovery ("" when the run
	// failed through an error return rather than a panic).
	Stack string
	// Crashdump is the rendered forensic snapshot (see System.Crashdump).
	Crashdump string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("sim: run %s/%s (seed %d) failed at cycle %d: %v",
		e.Workload, e.Scheme, e.Seed, e.Cycle, e.Cause)
}

func (e *RunError) Unwrap() error { return e.Cause }

// failRun builds the RunError for cause, snapshotting the system state
// before anything is torn down.
func (s *System) failRun(cause error, stack []byte) *RunError {
	re := &RunError{
		Scheme:        s.Cfg.Scheme,
		Workload:      s.Cfg.Workload,
		Seed:          s.Cfg.Seed,
		Cycle:         s.Sim.Now(),
		Events:        s.Sim.Fired(),
		Pending:       s.Sim.Pending(),
		SwapsInFlight: s.Ctl.Engine.Busy(),
		Cause:         cause,
		Stack:         string(stack),
	}
	re.Crashdump = s.Crashdump(re)
	return re
}

// recoverRunError converts a recovered panic value into a RunError.
func (s *System) recoverRunError(p any, stack []byte) *RunError {
	cause, ok := p.(error)
	if !ok {
		cause = fmt.Errorf("panic: %v", p)
	}
	return s.failRun(cause, stack)
}

// crashdumpPendingEvents bounds the event-queue snapshot in a crashdump.
const crashdumpPendingEvents = 32

// crashdumpTimelineTail bounds how many trailing timeline samples a
// crashdump carries.
const crashdumpTimelineTail = 8

// Crashdump renders a forensic snapshot of the (possibly wedged) system for
// offline triage: run identity and cause, event-queue head, swap-engine
// state, queue occupancies, outstanding cache misses, manager state, fault
// injection counters, and the tail of the epoch timeline. It is pure
// formatting — safe to call from a recover handler — and deterministic for a
// given system state.
func (s *System) Crashdump(re *RunError) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pageseer crashdump\n")
	fmt.Fprintf(&b, "run: workload=%s scheme=%s seed=%d scale=%d\n",
		s.Cfg.Workload, s.Cfg.Scheme, s.Cfg.Seed, s.Cfg.Scale)
	fmt.Fprintf(&b, "cause: %v\n", re.Cause)
	fmt.Fprintf(&b, "clock: cycle=%d events-fired=%d events-pending=%d\n",
		re.Cycle, re.Events, re.Pending)

	fmt.Fprintf(&b, "\ncores:\n")
	for i, c := range s.Cores {
		st := c.Stats()
		fmt.Fprintf(&b, "  core %d: instr=%d memops=%d outstanding=%d done=%v\n",
			i, st.Instructions, st.MemOps, c.Outstanding(), st.Done)
	}

	fmt.Fprintf(&b, "\nevent queue (first %d):\n", crashdumpPendingEvents)
	for _, cycle := range s.Sim.SnapshotPending(crashdumpPendingEvents) {
		fmt.Fprintf(&b, "  cycle=%d\n", cycle)
	}

	es := s.Ctl.Engine.Stats()
	fmt.Fprintf(&b, "\nswap engine: running=%d started=%d completed=%d rejected=%d\n",
		s.Ctl.Engine.Busy(), es.OpsStarted, es.OpsCompleted, es.OpsRejected)
	for _, line := range s.Ctl.Engine.DescribeRunning() {
		fmt.Fprintf(&b, "  %s\n", line)
	}

	cs := s.Ctl.Stats()
	fmt.Fprintf(&b, "\ncontroller: demand=%d data=%d writebacks=%d served dram/nvm/buf=%d/%d/%d\n",
		cs.Demand, cs.DataDemand, cs.Writebacks, cs.ServedDRAM, cs.ServedNVM, cs.ServedBuf)
	dq, da := s.Ctl.DRAM.Backlog()
	nq, na := s.Ctl.NVM.Backlog()
	fmt.Fprintf(&b, "memory queues: dram queued=%d bus-ahead=%d; nvm queued=%d bus-ahead=%d\n",
		dq, da, nq, na)

	var l1, l2 int
	for i, c := range s.Cores {
		l1 += c.L1().OutstandingMisses()
		l2 += s.L2s[i].OutstandingMisses()
	}
	fmt.Fprintf(&b, "outstanding misses: L1=%d L2=%d L3=%d\n", l1, l2, s.L3.OutstandingMisses())

	if d, ok := s.Ctl.Manager().(interface{ DumpState() string }); ok {
		fmt.Fprintf(&b, "\nmanager: %s\n", d.DumpState())
	}
	if inj := s.Ctl.Injector(); inj != nil {
		is := inj.Stats()
		fmt.Fprintf(&b, "\nfault injection: kind=%s rate=%g seed=%d blocked=%d forced-miss=%d stalls=%d storm=%d\n",
			inj.Plan().Kind, inj.Plan().Rate, inj.Plan().Seed,
			is.SwapStartsBlocked, is.MetaMissesForced, is.IssueStalls, is.StormTouches)
	}

	if s.Timeline != nil {
		samples := s.Timeline.Samples()
		from := 0
		if len(samples) > crashdumpTimelineTail {
			from = len(samples) - crashdumpTimelineTail
		}
		fmt.Fprintf(&b, "\ntimeline tail (%d of %d samples):\n", len(samples)-from, len(samples))
		for _, ts := range samples[from:] {
			fmt.Fprintf(&b, "  cycle=%d instr=%d swaps=%d inflight=%d dramQ=%d nvmQ=%d\n",
				ts.Cycle, ts.Instructions, ts.Swaps, ts.SwapsInFlight, ts.DRAMQueue, ts.NVMQueue)
		}
	}

	if re.Stack != "" {
		fmt.Fprintf(&b, "\nstack:\n%s", re.Stack)
	}
	return b.String()
}
