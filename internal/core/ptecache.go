package core

import (
	"pageseer/internal/check"
	"pageseer/internal/mem"
)

// MMUDriverLines is the size of the MMU Driver's PTE-line cache (Table II).
const MMUDriverLines = 16

// PTECache is the MMU Driver's small cache of memory lines holding PTEs
// (MMUDriverLines lines, one fully associative set). It is filled by MMU
// hints and consulted when an LLC miss requesting a PTE line reaches the
// controller; the paper measures a >99% hit rate for those requests
// (Section V-B).
type PTECache struct {
	lines mem.Sets // resident lines, keyed by line number
	// pending holds the in-flight fetches, keyed by line number; later
	// Obtains of a pending line park on its fetch. Obtain sits on the
	// MMU-hint path, which fires on every page walk, so the fetches are
	// pooled records that allocate nothing in steady state.
	pending mem.Fetches[struct{}]

	hits        uint64
	pendingHits uint64
	misses      uint64
}

// NewPTECache builds an empty PTE-line cache.
func NewPTECache() *PTECache {
	p := &PTECache{lines: mem.NewSets(MMUDriverLines, MMUDriverLines)}
	p.pending.Fill = p.filled
	return p
}

// filled installs line n of a completed fetch, before its waiters run, so
// a waiter that obtains it again finds it resident.
func (p *PTECache) filled(n uint64, _ *struct{}) { p.insert(mem.Addr(n << mem.LineShift)) }

// Hits returns how many Obtain calls found the line resident.
func (p *PTECache) Hits() uint64 { return p.hits }

// PendingHits returns how many Obtain calls merged into an in-flight fetch
// ("it has already issued a request for it", Section III-B).
func (p *PTECache) PendingHits() uint64 { return p.pendingHits }

// Misses returns how many Obtain calls had to fetch from memory.
func (p *PTECache) Misses() uint64 { return p.misses }

// Len returns the number of resident lines.
func (p *PTECache) Len() int {
	n := 0
	for w := range MMUDriverLines {
		if _, ok := p.lines.Key(w); ok {
			n++
		}
	}
	return n
}

// Contains reports residency without touching LRU.
func (p *PTECache) Contains(line mem.Addr) bool {
	return p.lines.Find(0, mem.LineNum(line)) >= 0
}

// Pending reports whether a fetch for line is in flight.
func (p *PTECache) Pending(line mem.Addr) bool {
	return p.pending.Has(mem.LineNum(line))
}

// Obtain delivers the PTE line: immediately if resident, after the current
// fetch if one is in flight, otherwise by invoking fetch (which must call
// its argument when the memory read completes). ready runs once the line
// is available; servedFromCache reports whether the driver could supply the
// line without a new memory access.
func (p *PTECache) Obtain(line mem.Addr, fetch func(done func()), ready func()) (servedFromCache bool) {
	line = mem.LineOf(line)
	if w := p.lines.Find(0, mem.LineNum(line)); w >= 0 {
		p.hits++
		p.lines.Touch(0, w)
		ready()
		return true
	}
	f, fresh := p.pending.Join(mem.LineNum(line), ready)
	if !fresh {
		p.pendingHits++
		return true
	}
	p.misses++
	fetch(f.Done)
	return false
}

// insert makes line resident and the most recently used, displacing the
// least recently used line when the cache is full.
func (p *PTECache) insert(line mem.Addr) {
	n := mem.LineNum(line)
	w := p.lines.Find(0, n)
	if w < 0 {
		w = p.lines.Victim(0)
	}
	p.lines.Fill(0, w, n)
}

// Audit reports end-of-run invariant violations: a quiesced PTE-line cache
// has no fetch in flight and every pooled fetch record back in its pool.
func (p *PTECache) Audit(a *check.Audit) {
	a.Checkf(p.pending.Len() == 0,
		"pte cache: %d line fetch(es) still pending at quiescence", p.pending.Len())
	a.Checkf(p.pending.Live() == 0,
		"pte cache: %d pooled fetch record(s) never returned", p.pending.Live())
}
