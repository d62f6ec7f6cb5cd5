package mem

// Pool is the simulator's one free list: a stack of the records that carry
// a request across a latency (cache accesses, in-flight fetches in a
// Fetches file, controller and memsim requests, swap ops and lines,
// segment exchanges, metadata-cache probes, MMU translations and hints,
// core transactions, PageSeer's continuations). An owner mints a record
// only while its pool warms to the owner's steady-state concurrency,
// binding the record's continuation closures once, so the demand path
// allocates nothing after that. The zero value is an empty pool.
type Pool[T any] struct {
	free []*T
	live int // records checked out and not yet returned
}

// Get checks a record out: the one returned most recently, or nil when the
// pool is empty, in which case the caller mints a fresh record. Either way
// the record counts as live until Put.
func (p *Pool[T]) Get() *T {
	p.live++
	n := len(p.free)
	if n == 0 {
		return nil
	}
	t := p.free[n-1]
	p.free = p.free[:n-1]
	return t
}

// Put returns a record to the pool. The owner resets it first, or on its
// next Get.
func (p *Pool[T]) Put(t *T) {
	p.live--
	p.free = append(p.free, t)
}

// Live returns the number of records checked out and not yet returned: 0
// at quiescence, which the owners' leak audits check.
func (p *Pool[T]) Live() int { return p.live }
