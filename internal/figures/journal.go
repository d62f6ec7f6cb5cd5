package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pageseer/internal/sim"
)

// The campaign journal makes a campaign crash-safe: every completed run
// appends one self-checking record, so a campaign killed mid-grid (SIGKILL,
// OOM, power loss) resumes by replaying the journal and re-executing only
// the runs that were in flight when it died.
//
// Format (line-oriented, append-only):
//
//	pageseer-journal v3 <campaign-hash>\n
//	<crc32-hex> <json>\n
//	...
//
// The header's campaign hash covers every option that shapes Results, so a
// journal recorded under different budgets or schemes is refused with a
// one-line diagnosis rather than silently merged. Each record carries its
// run key, the sha256 of that run's resolved sim.Config, and the completed
// Results; the leading CRC32 (IEEE, over the JSON) catches torn or corrupted
// records. A torn final record — the write the crash interrupted — is
// tolerated and truncated away; corruption anywhere else is refused, naming
// the record.
//
// Journal writes happen once per completed run, on the campaign worker
// goroutine, after the simulation has finished — never on the simulation's
// demand path.

// journalVersion is bumped on any format change, including a change to the
// sim.Config fields configHash encodes: older records' hashes would no
// longer match, and resume must say so by version, not as a foreign campaign.
// Dropping a record field needs no bump: encoding/json skips the unknown key
// in older records (v3 records written before -retry was removed carry an
// "attempts" count).
const journalVersion = 3

// journalFile is the file name inside the -journal directory.
const journalFile = "journal.psj"

// journalRecord is one completed run.
type journalRecord struct {
	Workload   string      `json:"workload"`
	Scheme     string      `json:"scheme"`
	NoBW       bool        `json:"nobw,omitempty"`
	ConfigHash string      `json:"config_hash"`
	Results    sim.Results `json:"results"`
}

// Journal is the append-only campaign journal. Safe for concurrent use by
// the Runner's workers.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	done map[Key]journalRecord
}

// journalKey converts a record back to the runner's cache key.
func (rec *journalRecord) key() Key {
	return Key{Workload: rec.Workload, Scheme: sim.Scheme(rec.Scheme), DisableBW: rec.NoBW}
}

// OpenJournal creates (or, with resume, reopens) the campaign journal in
// dir. campaignHash must be CampaignHash(opts) for the campaign about to
// run: a resumed journal whose header disagrees is refused. Without resume
// an existing journal is an error — refusing to clobber completed work
// forces the operator to choose -resume or a fresh directory.
func OpenJournal(dir, campaignHash string, resume bool) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	header := fmt.Sprintf("pageseer-journal v%d %s\n", journalVersion, campaignHash)

	if _, err := os.Stat(path); err == nil && !resume {
		return nil, fmt.Errorf("journal: %s exists; pass -resume to continue it or point -journal at a fresh directory", path)
	}

	j := &Journal{path: path, done: make(map[Key]journalRecord)}
	if resume {
		keep, err := j.load(path, campaignHash)
		if err != nil {
			return nil, err
		}
		if keep >= 0 {
			// Drop the torn final record (partial line the crash left).
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				return nil, fmt.Errorf("journal: %w", err)
			}
			if err := f.Truncate(keep); err != nil {
				f.Close()
				return nil, fmt.Errorf("journal: truncating torn record: %w", err)
			}
			f.Close()
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	if st, serr := f.Stat(); serr == nil && st.Size() == 0 {
		// Fresh journal (or one truncated back to nothing): write the header.
		if _, err := f.WriteString(header); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: writing header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	return j, nil
}

// load replays an existing journal. It returns the byte offset to truncate
// to when the final record is torn (-1 when the file is clean), or an error
// for header/CRC problems anywhere else.
func (j *Journal) load(path, campaignHash string) (truncateTo int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return -1, nil // nothing to resume; a fresh journal is written
		}
		return -1, fmt.Errorf("journal: %w", err)
	}
	if len(data) == 0 {
		return -1, nil
	}
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 {
		// Even the header is torn: the campaign died on its very first
		// write. Start over.
		return 0, nil
	}
	header := string(data[:nl])
	var ver int
	var hash string
	if n, _ := fmt.Sscanf(header, "pageseer-journal v%d %s", &ver, &hash); n != 2 {
		return -1, fmt.Errorf("journal: %s: unrecognized header %q", path, header)
	}
	if ver != journalVersion {
		return -1, fmt.Errorf("journal: %s is format v%d, this build writes v%d", path, ver, journalVersion)
	}
	if hash != campaignHash {
		return -1, fmt.Errorf("journal: %s was recorded for campaign %s but this invocation is campaign %s — budgets, seed, scale, or instrumentation differ; rerun with the original flags or use a fresh -journal directory", path, hash, campaignHash)
	}

	off := int64(nl + 1)
	rest := data[nl+1:]
	recNo := 0
	for len(rest) > 0 {
		recNo++
		lineEnd := strings.IndexByte(string(rest), '\n')
		if lineEnd < 0 {
			// Torn final record: no newline ever made it to disk.
			return off, nil
		}
		line := string(rest[:lineEnd])
		rec, perr := parseRecord(line)
		if perr != nil {
			if len(rest) == lineEnd+1 {
				// Final record, malformed but newline-terminated: a torn
				// write that happened to end at a stale newline. Truncate.
				return off, nil
			}
			return -1, fmt.Errorf("journal: %s record %d: %w", path, recNo, perr)
		}
		j.done[rec.key()] = *rec
		off += int64(lineEnd + 1)
		rest = rest[lineEnd+1:]
	}
	return -1, nil
}

// parseRecord decodes and CRC-verifies one journal line.
func parseRecord(line string) (*journalRecord, error) {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return nil, fmt.Errorf("no checksum separator")
	}
	wantSum, body := line[:sp], line[sp+1:]
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(body))); got != wantSum {
		return nil, fmt.Errorf("checksum mismatch (recorded %s, computed %s) — journal corrupt", wantSum, got)
	}
	var rec journalRecord
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	return &rec, nil
}

// lookup returns the journaled record for a run key, if the key completed
// in a previous (or the current) campaign. The config hash is re-verified by
// the caller (Runner.run) against the key's freshly resolved configuration.
func (j *Journal) lookup(k Key) (journalRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.done[k]
	return rec, ok
}

// Completed returns how many runs the journal holds.
func (j *Journal) Completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// record appends one completed run and syncs it to disk, so a kill
// immediately afterwards cannot lose it.
func (j *Journal) record(k Key, configHash string, res sim.Results) error {
	rec := journalRecord{
		Workload:   k.Workload,
		Scheme:     string(k.Scheme),
		NoBW:       k.DisableBW,
		ConfigHash: configHash,
		Results:    res,
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[k] = rec
	if _, err := j.f.WriteString(line); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing record: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// CampaignHash digests what shapes a campaign's Results — the journal
// header's compatibility check: the run template with the fields each run
// key sets (scheme, workload, bandwidth heuristic) cleared. Presentation and
// execution-strategy options (the workload list, Progress, Parallelism,
// RunTimeout, the journal itself) are excluded on purpose: they change
// wall-clock behaviour, never Results, so a campaign may legitimately
// resume under different parallelism.
func CampaignHash(opts Options) string { return configHash(opts.configFor(Key{})) }

// configHash digests one run's fully resolved sim.Config — the per-record
// compatibility check, stricter than the campaign hash because it covers
// key-derived fields too.
func configHash(cfg sim.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("figures: config hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
