package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		funcs []string // innermost first
		want  string
	}{
		{"map helper charged to its caller", []string{
			"runtime.mapaccess2_fast64",
			"pageseer/internal/core.(*PCT).lookup",
			"pageseer/internal/hmc.(*Controller).Access",
			"main.buildAndRun",
		}, "core"},
		{"GC worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, layerRuntime},
		{"obs subpackages fold into obs", []string{
			"pageseer/internal/obs/ledger.(*Ledger).Start", "pageseer/internal/pom.(*PoM).swap",
		}, "obs"},
		{"closure", []string{"pageseer/internal/memsim.(*Module).schedule.func1"}, "memsim"},
		{"benchmark code", []string{"runtime.mallocgc", "main.buildAndRun", "main.main"}, layerBench},
	} {
		if got := layerOf(tc.funcs); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytes(num int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func (b *pb) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytes(num, p)
}

func msg(build func(*pb)) []byte {
	var m pb
	build(&m)
	return m.Bytes()
}

// TestFoldSyntheticProfile decodes a hand-built profile in which location 1
// holds a cache function inlined into a cpu function, so its sample belongs
// to cache, and a second sample sits in a runtime helper called from core.
func TestFoldSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"pageseer/internal/cache.(*Cache).lookup", "pageseer/internal/cpu.(*Core).issue",
		"runtime.mapaccess1", "pageseer/internal/core.(*PCT).lookup"}
	var p pb
	for _, typ := range []struct{ typ, unit uint64 }{{1, 2}, {3, 4}} {
		p.bytes(1, msg(func(m *pb) { m.varint(1, typ.typ); m.varint(2, typ.unit) }))
	}
	// Sample 1: one location, values not packed. Sample 2: two locations, packed.
	p.bytes(2, msg(func(m *pb) { m.varint(1, 1); m.varint(2, 3); m.varint(2, 30_000_000) }))
	p.bytes(2, msg(func(m *pb) { m.packed(1, 2, 3); m.packed(2, 1, 10_000_000) }))
	line := func(fn uint64) []byte { return msg(func(m *pb) { m.varint(1, fn); m.varint(2, 42) }) }
	p.bytes(4, msg(func(m *pb) { m.varint(1, 1); m.bytes(4, line(1)); m.bytes(4, line(2)) }))
	p.bytes(4, msg(func(m *pb) { m.varint(1, 2); m.bytes(4, line(3)) }))
	p.bytes(4, msg(func(m *pb) { m.varint(1, 3); m.bytes(4, line(4)) }))
	for id, name := range []uint64{5, 6, 7, 8} {
		p.bytes(5, msg(func(m *pb) { m.varint(1, uint64(id+1)); m.varint(2, name) }))
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	prof, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := prof.fold()
	want := map[string]int64{"cache": 30_000_000, "core": 10_000_000}
	if len(got) != len(want) || got["cache"] != want["cache"] || got["core"] != want["core"] {
		t.Errorf("fold = %v, want %v", got, want)
	}
	if f := prof.samples[0].funcs; len(f) != 2 || f[0] != strs[5] || f[1] != strs[6] {
		t.Errorf("inlined location expanded to %v, want innermost (cache) first", f)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestParseRealProfile decodes what runtime/pprof actually writes.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range prof.samples {
		total += s.ns
		for _, fn := range s.funcs {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if total <= 0 || !found {
		t.Errorf("decoded %d samples, %d ns, spin frame found %v", len(prof.samples), total, found)
	}
}
