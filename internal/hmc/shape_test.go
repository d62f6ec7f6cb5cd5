package hmc

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/obs"
)

// shapeRecorder stands in for the memory modules under a swap engine and
// writes down, one line each, every line access the engine issues (cycle,
// read or write, address, priority) and every stage boundary it reports.
// A DRAM access returns after 7 cycles and an NVM one after 20, so reads
// of the two modules return out of issue order.
type shapeRecorder struct {
	obs.NopProbe
	sim     *engine.Sim
	isDRAM  func(mem.Addr) bool
	trace   strings.Builder
	started string // the last SwapStarted's stage count, slot and bytes
}

func (r *shapeRecorder) issue(addr mem.Addr, write bool, prio memsim.Priority, done func()) {
	rw, lat := 'R', uint64(20)
	if write {
		rw = 'W'
	}
	if r.isDRAM(addr) {
		lat = 7
	}
	fmt.Fprintf(&r.trace, "%d %c %#x %d\n", r.sim.Now(), rw, uint64(addr), prio)
	r.sim.After(lat, done)
}

func (r *shapeRecorder) SwapStarted(s *obs.Swap) {
	r.started = fmt.Sprintf("stages=%d slot=%d dram=%d nvm=%d", s.StageCount, s.Slot, s.BytesDRAM, s.BytesNVM)
	fmt.Fprintf(&r.trace, "%d started %s\n", r.sim.Now(), r.started)
}

func (r *shapeRecorder) SwapStage(s *obs.Swap, stage int, began, now, lines uint64) {
	fmt.Fprintf(&r.trace, "%d stage %d began=%d lines=%d\n", now, stage, began, lines)
}

// TestSwapShapesPinned pins the line traffic of each exchange shape at
// both swap units: the exact order, cycle and priority of every line read,
// line write and buffer drain, where each stage ends, and what the
// engine's SwapStarted reports. The sequence runs a Pair, an optimized
// slow swap on the pair it leaves and the Restore that sends everything
// home, one at a time, on a 2MB DRAM + 16MB NVM controller.
func TestSwapShapesPinned(t *testing.T) {
	want := map[string]struct{ started, digest string }{
		"2048B/pair":    {"stages=1 slot=0 dram=4096 nvm=4096", "f19fe636f8efa4f6"},
		"2048B/slow":    {"stages=2 slot=1 dram=4096 nvm=8192", "9ecb37f374a1ec65"},
		"2048B/restore": {"stages=1 slot=2 dram=4096 nvm=4096", "7695a97b31b843a1"},
		"4096B/pair":    {"stages=1 slot=0 dram=8192 nvm=8192", "5c6a41be692f3485"},
		"4096B/slow":    {"stages=2 slot=1 dram=8192 nvm=16384", "143dfd79b2cbb51a"},
		"4096B/restore": {"stages=1 slot=2 dram=8192 nvm=8192", "52dc68381a6462d9"},
	}
	for _, shift := range []uint{11, mem.PageShift} {
		sim := engine.New()
		osm := mem.NewOS(mem.Map{DRAMBytes: 2 << 20, NVMBytes: 16 << 20}, 16)
		ctl := NewController(sim, osm)
		g := NewSegments(ctl, "shapes", shift, MetaCacheConfig{
			Name: "RC", Entries: 64, Ways: 4, HitLatency: 2, EntriesPerLine: 16,
		}, 32<<10, func(Move) {})
		ctl.Seal(ctl.Layout.Total() >> mem.PageShift)
		rec := &shapeRecorder{sim: sim, isDRAM: ctl.Layout.IsDRAM}
		ctl.Attach(rec)
		ctl.Engine.issue = rec.issue
		n, d := g.FastUnits()+100, g.FastUnits()-1
		for _, c := range []struct {
			name string
			m    Move
		}{
			{"pair", Move{Shape: Pair, Data: n, Dst: d, Key: uint64(n)}},
			{"slow", Move{Shape: Slow, Data: n + 1, Dst: d, Key: uint64(n + 1)}},
			{"restore", Move{Shape: Restore, Data: d, Dst: d}},
		} {
			key := fmt.Sprintf("%dB/%s", 1<<shift, c.name)
			rec.trace.Reset()
			if got := g.Start(c.m); got != Exchanged {
				t.Fatalf("%s: got %d, want Exchanged", key, got)
			}
			sim.Drain(0)
			trace := rec.trace.String()
			digest := fmt.Sprintf("%x", sha256.Sum256([]byte(trace)))[:16]
			if w := want[key]; rec.started != w.started || digest != w.digest {
				t.Errorf("%s: started %q digest %s, want %q %s; trace head:\n%s",
					key, rec.started, digest, w.started, w.digest, head(trace, 12))
			}
		}
	}
}

// head returns the first n lines of s.
func head(s string, n int) string {
	lines := strings.SplitAfter(s, "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "")
}
