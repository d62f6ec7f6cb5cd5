package core

import "pageseer/internal/mem"

// PTECache is the MMU Driver's small cache of memory lines holding PTEs
// (16 lines in Table II). It is filled by MMU hints and consulted when an
// LLC miss requesting a PTE line reaches the controller; the paper measures
// a >99% hit rate for those requests (Section V-B).
type PTECache struct {
	capacity int
	lines    []pteLine // resident lines, at most capacity
	// pending holds the in-flight fetches, keyed by line number; later
	// Obtains of a pending line park on its record.
	pending mem.Table[*pteFill]
	tick    uint64

	// Fetch records are recycled with their waiter arrays: Obtain sits on
	// the MMU-hint path, which fires on every page walk, so per-miss
	// closure and slice allocations would land on the steady-state budget.
	freeFill *pteFill

	hits        uint64
	pendingHits uint64
	misses      uint64
}

// pteLine is one resident line and its LRU stamp.
type pteLine struct {
	line  mem.Addr
	stamp uint64
}

// pteFill is one in-flight fetch: the Obtain calls waiting on it and its
// completion continuation, pre-bound to a pooled record.
type pteFill struct {
	p       *PTECache
	line    mem.Addr
	waiters []func()
	fn      func()
	next    *pteFill
}

func (p *PTECache) getFill(line mem.Addr) *pteFill {
	f := p.freeFill
	if f == nil {
		f = &pteFill{p: p}
		f.fn = func() { f.p.filled(f) }
	} else {
		p.freeFill = f.next
		f.next = nil
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
	f.next = p.freeFill
	p.freeFill = f
}

// NewPTECache builds an empty PTE-line cache.
func NewPTECache(capacity int) *PTECache {
	return &PTECache{
		capacity: capacity,
		lines:    make([]pteLine, 0, capacity),
	}
}

// Hits returns how many Obtain calls found the line resident.
func (p *PTECache) Hits() uint64 { return p.hits }

// PendingHits returns how many Obtain calls merged into an in-flight fetch
// ("it has already issued a request for it", Section III-B).
func (p *PTECache) PendingHits() uint64 { return p.pendingHits }

// Misses returns how many Obtain calls had to fetch from memory.
func (p *PTECache) Misses() uint64 { return p.misses }

// Len returns the number of resident lines.
func (p *PTECache) Len() int { return len(p.lines) }

// Contains reports residency without touching LRU.
func (p *PTECache) Contains(line mem.Addr) bool {
	return p.find(mem.LineOf(line)) >= 0
}

// find returns line's index in lines, or -1. The cache is a handful of
// lines (16 in Table II), so a linear search beats hashing.
func (p *PTECache) find(line mem.Addr) int {
	for i := range p.lines {
		if p.lines[i].line == line {
			return i
		}
	}
	return -1
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
	if i := p.find(line); i >= 0 {
		p.hits++
		p.touch(i)
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

func (p *PTECache) insert(line mem.Addr) {
	i := p.find(line)
	switch {
	case i >= 0:
	case len(p.lines) < max(p.capacity, 1):
		i = len(p.lines)
		p.lines = append(p.lines, pteLine{line: line})
	default:
		// Full: the new line takes the least recently used slot.
		i = 0
		for j := range p.lines {
			if p.lines[j].stamp < p.lines[i].stamp {
				i = j
			}
		}
		p.lines[i].line = line
	}
	p.touch(i)
}

func (p *PTECache) touch(i int) {
	p.tick++
	p.lines[i].stamp = p.tick
}
