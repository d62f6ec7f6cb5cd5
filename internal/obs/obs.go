// Package obs is the simulator-wide observability layer: log2-bucketed
// latency histograms, an epoch timeline sampler, a Chrome-trace/Perfetto
// event tracer, the swap-lifecycle event stream (Probe) that the tracer,
// the provenance ledger (obs/ledger) and the per-page table (obs/pagemap)
// subscribe to, and the CSV/JSON writer every exported table goes through
// (Columns, WriteJSON).
//
// The stream is the one place swaps are observed. A scheme describes each
// swap once, as the Swap identity of its hmc.Move; the swap engine reports
// the swap's start, stages, commit and settlement under one engine-assigned
// ID, and the memory controller reports MMU hints and demand, writeback
// and functional accesses. A new observer is one more subscriber, with no
// edit to any scheme. Trigger is the taxonomy every observer classifies
// swaps by.
//
// The package is designed around a zero-cost-when-off contract. A run
// with no observer carries an empty Probes stream, whose events are
// no-ops, so simulator hot paths pay one predictable branch and zero
// allocations when observation is off — pinned by the AllocsPerRun guards
// in this package's tests and the Makefile `allocguard` target. Enabled
// sinks only ever append to slices or bump counters; none of them
// schedules engine events or perturbs simulated time, so Results are
// byte-identical with sinks on or off.
//
// obs depends only on the standard library: the simulator packages (engine,
// hmc, core, memsim, sim) import it, never the reverse. Cross-package
// measurements flow in through plain counter snapshots (TimelineCounters),
// scalar recording calls and probe events.
package obs
