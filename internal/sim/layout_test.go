package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"pageseer/internal/mem"
	"pageseer/internal/workload"
)

// layoutProfiles are the four workloads the benchmark builds.
var layoutProfiles = []string{"GemsFDTD", "mcf", "radix", "mix6"}

// layoutSchemes are the schemes the benchmark builds them under.
var layoutSchemes = []Scheme{SchemeStatic, SchemePoM, SchemeMemPod, SchemePageSeer}

// wantLayout pins, per profile and scheme, a hash of every process's page
// tables after Build: each pre-touched page's VPN, its leaf PPN and the
// physical address of every entry its walk reads (which names each table
// frame). Frame allocation order fixes all three, so a change to how Build
// maps pages that moves any frame moves the hash.
var wantLayout = map[string]string{
	"GemsFDTD/static":   "dbb572a5e3e4bd88",
	"GemsFDTD/pom":      "c036da77c5167dc0",
	"GemsFDTD/mempod":   "c036da77c5167dc0",
	"GemsFDTD/pageseer": "ce1e080e9fe2d721",
	"mcf/static":        "4146ce130ded5a10",
	"mcf/pom":           "59277b7e079124e2",
	"mcf/mempod":        "59277b7e079124e2",
	"mcf/pageseer":      "cc546c2f55445e7a",
	"radix/static":      "92e2d3f9ab7c963a",
	"radix/pom":         "6cddf64a5e26ae40",
	"radix/mempod":      "6cddf64a5e26ae40",
	"radix/pageseer":    "2b0309ac9705e972",
	"mix6/static":       "ff968d7673ff1a6f",
	"mix6/pom":          "3ef505426b4f93ea",
	"mix6/mempod":       "3ef505426b4f93ea",
	"mix6/pageseer":     "c1f3e4feb6237be0",
}

// layoutHash walks every process's footprint through the page tables and
// hashes the mappings. It fails t if a footprint page is unmapped or the
// page just past a footprint is mapped.
func layoutHash(t *testing.T, cfg Config) string {
	t.Helper()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, feet, err := sys.Cfg.cores()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, f := range feet {
		pid := i + 1
		as, ok := sys.OS.Process(pid)
		if !ok {
			t.Fatalf("pid %d has no address space", pid)
		}
		pages := f / mem.PageSize
		for off := uint64(0); off < pages; off++ {
			va := workload.VABase + mem.VAddr(off*mem.PageSize)
			w, ok := as.Lookup(va)
			if !ok {
				t.Fatalf("pid %d: footprint page %#x is unmapped", pid, uint64(va))
			}
			put(uint64(pid))
			put(uint64(mem.VPageOf(va)))
			put(uint64(w.Leaf))
			for _, st := range w.Steps {
				put(uint64(st.EntryAddr))
			}
		}
		if _, ok := as.Lookup(workload.VABase + mem.VAddr(pages*mem.PageSize)); ok {
			t.Fatalf("pid %d: the page past the footprint is mapped", pid)
		}
		put(as.TableFrames())
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestPageTableLayoutPinned pins the frames Build's pre-touch hands out:
// the VPN -> PPN mapping and the table frames of every process, for the
// benchmark's profiles under each scheme.
func TestPageTableLayoutPinned(t *testing.T) {
	for _, p := range layoutProfiles {
		for _, s := range layoutSchemes {
			cfg := DefaultConfig()
			cfg.Workload = p
			cfg.Scheme = s
			key := p + "/" + string(s)
			if got := layoutHash(t, cfg); got != wantLayout[key] {
				t.Errorf("%s: layout hash %s, want %s", key, got, wantLayout[key])
			}
		}
	}
}
