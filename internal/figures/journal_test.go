package figures

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pageseer/internal/sim"
)

func journalOpts() Options {
	return Options{
		Config:      sim.Config{Scale: 128, InstrPerCore: 120_000, Warmup: 60_000, Seed: 1, MaxCores: 2},
		Workloads:   []string{"lbm"},
		Parallelism: 2,
	}
}

// journalCampaign runs the full one-workload campaign with a journal in dir
// and returns the journal path. 5 runs: PoM, MemPod, PageSeer, NoCorr, NoBW.
func journalCampaign(t *testing.T, dir string) string {
	t.Helper()
	opts := journalOpts()
	j, err := OpenJournal(dir, CampaignHash(opts), false)
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = j
	r := NewRunner(opts)
	if err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, journalFile)
}

// referenceResults runs the same campaign journal-free, as the ground truth
// resumed campaigns must reproduce byte-identically.
func referenceResults(t *testing.T) map[Key]sim.Results {
	t.Helper()
	r := NewRunner(journalOpts())
	if err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	ref := make(map[Key]sim.Results)
	for _, k := range r.keys(AllNeeds()) {
		res, err := r.run(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref[k] = res
	}
	return ref
}

// TestJournalResumeSkipsCompleted is the journal's core acceptance: after a
// completed campaign, a resumed campaign replays every run from the journal
// — zero re-executions — and its results are byte-identical.
func TestJournalResumeSkipsCompleted(t *testing.T) {
	dir := t.TempDir()
	journalCampaign(t, dir)
	ref := referenceResults(t)

	simulateHook = func(cfg sim.Config) {
		t.Errorf("%s/%s re-executed despite a complete journal", cfg.Workload, cfg.Scheme)
	}
	defer func() { simulateHook = nil }()

	opts := journalOpts()
	j, err := OpenJournal(dir, CampaignHash(opts), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got, want := j.Completed(), len(ref); got != want {
		t.Fatalf("journal replayed %d run(s), want %d", got, want)
	}
	opts.Journal = j
	r := NewRunner(opts)
	if err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	for k, want := range ref {
		got, err := r.run(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s/%s: journal replay diverged from the uninterrupted campaign", k.Workload, k.Label())
		}
	}
}

// TestJournalTornTailResumesOnlyCasualty simulates the SIGKILL landing
// mid-append: the final record is torn. Resume must tolerate it (truncate),
// re-execute exactly that one run, and reach results byte-identical to the
// uninterrupted campaign.
func TestJournalTornTailResumesOnlyCasualty(t *testing.T) {
	dir := t.TempDir()
	path := journalCampaign(t, dir)
	ref := referenceResults(t)

	// Tear the final record: chop the trailing newline plus a slice of JSON.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	var reruns int32
	simulateHook = func(sim.Config) { atomic.AddInt32(&reruns, 1) }
	defer func() { simulateHook = nil }()

	opts := journalOpts()
	j, err := OpenJournal(dir, CampaignHash(opts), true)
	if err != nil {
		t.Fatalf("resume refused a torn final record: %v", err)
	}
	defer j.Close()
	if got, want := j.Completed(), len(ref)-1; got != want {
		t.Fatalf("journal replayed %d run(s) after tearing one, want %d", got, want)
	}
	opts.Journal = j
	r := NewRunner(opts)
	if err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(&reruns); n != 1 {
		t.Errorf("resume re-executed %d run(s), want exactly the torn casualty", n)
	}
	for k, want := range ref {
		got, err := r.run(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s/%s: resumed campaign diverged from the uninterrupted one", k.Workload, k.Label())
		}
	}
}

// TestJournalCorruptionRefused pins the integrity check: a flipped byte in
// any non-final record is corruption, refused with an error naming the
// record — never silently dropped or replayed.
func TestJournalCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	path := journalCampaign(t, dir)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal has only %d line(s)", len(lines))
	}
	// Flip one byte in the middle of record 2 (lines[0] is the header).
	rec := lines[2]
	rec[len(rec)/2] ^= 0x40
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenJournal(dir, CampaignHash(journalOpts()), true)
	if err == nil {
		t.Fatal("resume accepted a corrupted record")
	}
	if !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption error does not name the record: %v", err)
	}
}

// TestJournalCampaignMismatchRefused: a journal recorded under different
// campaign options (different hash) must be refused with a one-line
// diagnosis, not merged.
func TestJournalCampaignMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	journalCampaign(t, dir)

	other := journalOpts()
	other.Config.Seed = 2
	_, err := OpenJournal(dir, CampaignHash(other), true)
	if err == nil {
		t.Fatal("resume accepted a journal from a different campaign")
	}
	if !strings.Contains(err.Error(), "campaign") {
		t.Fatalf("mismatch error lacks a diagnosis: %v", err)
	}
}

// TestJournalOldVersionRefused: a journal written by an older format —
// whose per-record config hashes this build can no longer reproduce — is
// refused on resume with the version diagnosis, not as a foreign campaign.
func TestJournalOldVersionRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	hash := CampaignHash(journalOpts())
	if err := os.WriteFile(path, []byte("pageseer-journal v2 "+hash+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(dir, hash, true)
	if err == nil {
		t.Fatal("resume accepted a v2 journal")
	}
	want := "journal: " + path + " is format v2, this build writes v3"
	if err.Error() != want {
		t.Fatalf("v2 journal refused with %q, want %q", err, want)
	}
}

// TestJournalRefusesClobber: without -resume an existing journal is never
// overwritten.
func TestJournalRefusesClobber(t *testing.T) {
	dir := t.TempDir()
	journalCampaign(t, dir)
	if _, err := OpenJournal(dir, CampaignHash(journalOpts()), false); err == nil {
		t.Fatal("OpenJournal clobbered an existing journal without resume")
	}
}

// TestJournalConfigHashMismatchRefused: a record whose per-run config hash
// disagrees with the freshly resolved configuration is refused at replay
// time (defense in depth behind the campaign hash).
func TestJournalConfigHashMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	opts := journalOpts()
	j, err := OpenJournal(dir, CampaignHash(opts), false)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Workload: "lbm", Scheme: sim.SchemePageSeer}
	if err := j.record(k, "0000000000000000", sim.Results{}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(dir, CampaignHash(opts), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opts.Journal = j2
	r := NewRunner(opts)
	if _, err := r.Run("lbm", sim.SchemePageSeer); err == nil {
		t.Fatal("replay accepted a record with a mismatched config hash")
	} else if !strings.Contains(err.Error(), "journal") {
		t.Fatalf("config-hash mismatch error lacks a diagnosis: %v", err)
	}
}

// TestJournalResumesRecordWithAttempts: v3 journals written while the
// runner still retried failed runs carry an "attempts" count in every
// record. Resume ignores the key and replays the record without
// re-executing the run.
func TestJournalResumesRecordWithAttempts(t *testing.T) {
	dir := t.TempDir()
	opts := journalOpts()
	k := Key{Workload: "lbm", Scheme: sim.SchemePageSeer}
	want := sim.Results{Scheme: sim.SchemePageSeer, Workload: "lbm", Cycles: 131364, Instructions: 400058, IPC: 3.045}
	res, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"workload":"lbm","scheme":"pageseer","config_hash":%q,"attempts":1,"results":%s}`,
		configHash(opts.configFor(k)), res)
	data := fmt.Sprintf("pageseer-journal v3 %s\n%08x %s\n", CampaignHash(opts), crc32.ChecksumIEEE([]byte(body)), body)
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(data), 0o666); err != nil {
		t.Fatal(err)
	}

	simulateHook = func(cfg sim.Config) {
		t.Errorf("%s/%s re-executed despite its journal record", cfg.Workload, cfg.Scheme)
	}
	defer func() { simulateHook = nil }()
	j, err := OpenJournal(dir, CampaignHash(opts), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := j.Completed(); n != 1 {
		t.Fatalf("journal replayed %d run(s), want 1", n)
	}
	opts.Journal = j
	got, err := NewRunner(opts).Run("lbm", sim.SchemePageSeer)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed results = %+v, want %+v", got, want)
	}
}
