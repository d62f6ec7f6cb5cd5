package core

import "pageseer/internal/mem"

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
	// Obtains of a pending line park on its record.
	pending mem.Table[*pteFill]
	// Fetch records are recycled with their waiter arrays: Obtain sits on
	// the MMU-hint path, which fires on every page walk, so per-miss
	// closure and slice allocations would land on the steady-state budget.
	fills mem.Pool[pteFill]

	hits        uint64
	pendingHits uint64
	misses      uint64
}

// pteFill is one in-flight fetch: the Obtain calls waiting on it and its
// completion continuation, pre-bound to a pooled record.
type pteFill struct {
	p       *PTECache
	line    mem.Addr
	waiters []func()
	fn      func()
}

func (p *PTECache) getFill(line mem.Addr) *pteFill {
	f := p.fills.Get()
	if f == nil {
		f = &pteFill{p: p}
		f.fn = func() { f.p.filled(f) }
	}
	f.line = line
	return f
}

// filled installs f's line and runs its waiters. The line leaves the
// pending table first, so a waiter that obtains it again finds it
// resident; f returns to the pool only after the last waiter ran.
func (p *PTECache) filled(f *pteFill) {
	p.pending.Del(mem.LineNum(f.line))
	p.insert(f.line)
	for i := 0; i < len(f.waiters); i++ {
		f.waiters[i]()
	}
	clear(f.waiters)
	f.line, f.waiters = 0, f.waiters[:0]
	p.fills.Put(f)
}

// NewPTECache builds an empty PTE-line cache.
func NewPTECache() *PTECache {
	return &PTECache{lines: mem.NewSets(MMUDriverLines, MMUDriverLines)}
}

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
	if f, ok := p.pending.Get(mem.LineNum(line)); ok {
		p.pendingHits++
		f.waiters = append(f.waiters, ready)
		return true
	}
	p.misses++
	f := p.getFill(line)
	f.waiters = append(f.waiters, ready)
	p.pending.Put(mem.LineNum(line), f)
	fetch(f.fn)
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
