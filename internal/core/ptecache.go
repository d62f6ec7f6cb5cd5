package core

import "pageseer/internal/mem"

// PTECache is the MMU Driver's small cache of memory lines holding PTEs
// (16 lines in Table II). It is filled by MMU hints and consulted when an
// LLC miss requesting a PTE line reaches the controller; the paper measures
// a >99% hit rate for those requests (Section V-B).
type PTECache struct {
	capacity int
	lines    []pteLine // resident lines, at most capacity
	pending  map[mem.Addr][]func()
	tick     uint64

	// Fetch-completion records and waiter slices are recycled: Obtain sits
	// on the MMU-hint path, which fires on every page walk, so per-miss
	// closure and slice allocations would land on the steady-state budget.
	freeFill    *pteFill
	freeWaiters [][]func()

	hits        uint64
	pendingHits uint64
	misses      uint64
}

// pteLine is one resident line and its LRU stamp.
type pteLine struct {
	line  mem.Addr
	stamp uint64
}

// pteFill is one in-flight fetch's completion continuation, pre-bound to a
// pooled record.
type pteFill struct {
	p    *PTECache
	line mem.Addr
	fn   func()
	next *pteFill
}

func (p *PTECache) getFill(line mem.Addr) *pteFill {
	f := p.freeFill
	if f == nil {
		f = &pteFill{p: p}
		f.fn = func() {
			line := f.line
			c := f.p
			f.line = 0
			f.next = c.freeFill
			c.freeFill = f
			c.insert(line)
			ws := c.pending[line]
			delete(c.pending, line)
			for _, w := range ws {
				w()
			}
			for i := range ws {
				ws[i] = nil
			}
			c.freeWaiters = append(c.freeWaiters, ws[:0])
		}
	} else {
		p.freeFill = f.next
		f.next = nil
	}
	f.line = line
	return f
}

func (p *PTECache) getWaiters() []func() {
	if n := len(p.freeWaiters); n > 0 {
		ws := p.freeWaiters[n-1]
		p.freeWaiters[n-1] = nil
		p.freeWaiters = p.freeWaiters[:n-1]
		return ws
	}
	return make([]func(), 0, 4)
}

// NewPTECache builds an empty PTE-line cache.
func NewPTECache(capacity int) *PTECache {
	return &PTECache{
		capacity: capacity,
		lines:    make([]pteLine, 0, capacity),
		pending:  make(map[mem.Addr][]func()),
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
	_, ok := p.pending[mem.LineOf(line)]
	return ok
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
	if ws, ok := p.pending[line]; ok {
		p.pendingHits++
		p.pending[line] = append(ws, ready)
		return true
	}
	p.misses++
	p.pending[line] = append(p.getWaiters(), ready)
	fetch(p.getFill(line).fn)
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
