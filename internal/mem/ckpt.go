package mem

import (
	"sort"

	"pageseer/internal/ckpt"
)

// SnapshotDigest writes a verification digest of the OS state rather than
// the state itself: the page tables and allocator are fully derivable — the
// build pre-touches every process footprint in deterministic order before
// any run starts, and page faults are free — so a restored system rebuilds
// them by re-running the same build. The digest pins that assumption: if a
// restored build ever diverges (different footprint, different allocator
// policy), VerifyDigest fails loudly instead of silently translating through
// different page tables.
func (o *OS) SnapshotDigest(w *ckpt.Writer) {
	w.Section("mem.os")
	w.U64(uint64(o.alloc.nextDRAM))
	w.U64(uint64(o.alloc.nextNVM))
	w.Int(len(o.alloc.freeDRAM))
	w.Int(len(o.alloc.freeNVM))
	w.U64(o.alloc.usedDRAM)
	w.U64(o.alloc.usedNVM)
	pids := make([]int, 0, len(o.procs))
	for pid := range o.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	w.Int(len(pids))
	for _, pid := range pids {
		as := o.procs[pid]
		w.Int(pid)
		w.U64(uint64(as.root))
		w.Int(len(as.mapped))
		w.U64(as.tableCount)
	}
}

// VerifyDigest checks a freshly built OS against the digest written by
// SnapshotDigest, failing the reader on any mismatch.
func (o *OS) VerifyDigest(r *ckpt.Reader) {
	r.Section("mem.os")
	if v := PPN(r.U64()); v != o.alloc.nextDRAM {
		r.Failf("mem: snapshot nextDRAM %#x, built %#x", uint64(v), uint64(o.alloc.nextDRAM))
		return
	}
	if v := PPN(r.U64()); v != o.alloc.nextNVM {
		r.Failf("mem: snapshot nextNVM %#x, built %#x", uint64(v), uint64(o.alloc.nextNVM))
		return
	}
	if v := r.Int(); v != len(o.alloc.freeDRAM) {
		r.Failf("mem: snapshot has %d free DRAM frame(s), built %d", v, len(o.alloc.freeDRAM))
		return
	}
	if v := r.Int(); v != len(o.alloc.freeNVM) {
		r.Failf("mem: snapshot has %d free NVM frame(s), built %d", v, len(o.alloc.freeNVM))
		return
	}
	if v := r.U64(); v != o.alloc.usedDRAM {
		r.Failf("mem: snapshot usedDRAM %d, built %d", v, o.alloc.usedDRAM)
		return
	}
	if v := r.U64(); v != o.alloc.usedNVM {
		r.Failf("mem: snapshot usedNVM %d, built %d", v, o.alloc.usedNVM)
		return
	}
	if n := r.Int(); n != len(o.procs) {
		r.Failf("mem: snapshot has %d process(es), built %d", n, len(o.procs))
		return
	}
	pids := make([]int, 0, len(o.procs))
	for pid := range o.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		if v := r.Int(); v != pid {
			r.Failf("mem: snapshot process %d, built %d", v, pid)
			return
		}
		as := o.procs[pid]
		if v := PPN(r.U64()); v != as.root {
			r.Failf("mem: pid %d snapshot PGD %#x, built %#x", pid, uint64(v), uint64(as.root))
			return
		}
		if v := r.Int(); v != len(as.mapped) {
			r.Failf("mem: pid %d snapshot maps %d page(s), built %d", pid, v, len(as.mapped))
			return
		}
		if v := r.U64(); v != as.tableCount {
			r.Failf("mem: pid %d snapshot has %d table frame(s), built %d", pid, v, as.tableCount)
			return
		}
	}
}
