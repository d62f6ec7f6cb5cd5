package mem

import "fmt"

// Fetches is the simulator's one file of in-flight fetches that merge
// misses: a miss on a key already being fetched waits on that fetch instead
// of issuing another. Its users are the cache MSHRs (keyed by line number),
// the metadata caches' DRAM line fetches (keyed by line index) and the MMU
// Driver's PTE-line fills (keyed by line number). The zero value is an
// empty file; the owner sets Fill before the first Join.
//
// Each fetch is a pooled record carrying the owner's per-fetch payload,
// the waiters parked on it and a pre-bound Done continuation, so a miss
// allocates nothing once the pool and each record's waiter array have
// warmed to the owner's steady-state concurrency. Done removes the key
// from the file, runs Fill, then runs the waiters in arrival order. A
// waiter that misses the same key again therefore starts a fresh fetch on
// a fresh record; the record returns to the pool only after the last
// waiter has run.
type Fetches[X any] struct {
	// Fill runs when a fetch completes, after its key has left the file
	// and before its waiters run. It receives the key and the payload, and
	// must leave the payload ready for the record's next fetch (the record
	// returns to the pool with it).
	Fill func(key uint64, data *X)

	table Table[*Fetch[X]]
	pool  Pool[Fetch[X]]
}

// Fetch is one in-flight fetch.
type Fetch[X any] struct {
	Data X // the owner's payload
	// Done completes the fetch: the owner passes it to whatever brings
	// the data back. Calling it twice panics.
	Done func()

	key     uint64
	waiters []func()
}

// Join parks waiter (if non-nil) on key's in-flight fetch, opening one
// when there is none. fresh reports that the fetch was just opened: the
// owner fills in its payload and issues it with f.Done.
func (fs *Fetches[X]) Join(key uint64, waiter func()) (f *Fetch[X], fresh bool) {
	f, ok := fs.table.Get(key)
	if !ok {
		if f = fs.pool.Get(); f == nil {
			f = fs.mint()
		}
		f.key = key
		fs.table.Put(key, f)
	}
	if waiter != nil {
		f.waiters = append(f.waiters, waiter)
	}
	return f, !ok
}

// mint builds a record with its Done bound. It is apart from Join because
// a closure there would capture Join's result and move it to the heap on
// every call.
func (fs *Fetches[X]) mint() *Fetch[X] {
	f := &Fetch[X]{}
	f.Done = func() { fs.done(f) }
	return f
}

func (fs *Fetches[X]) done(f *Fetch[X]) {
	if got, _ := fs.table.Del(f.key); got != f {
		panic(fmt.Sprintf("mem: fill for key %#x with no fetch in flight", f.key))
	}
	fs.Fill(f.key, &f.Data)
	// Index loop: a waiter that misses the same key opens a fresh record
	// (f is still checked out), so f.waiters cannot grow underneath us.
	for i := 0; i < len(f.waiters); i++ {
		f.waiters[i]()
	}
	// Index stores, not clear: the array usually holds one element, and
	// clear of a pointer slice is a runtime memclrHasPointers call.
	for i := 0; i < len(f.waiters); i++ {
		f.waiters[i] = nil
	}
	f.key, f.waiters = 0, f.waiters[:0]
	fs.pool.Put(f)
}

// Has reports whether a fetch for key is in flight.
func (fs *Fetches[X]) Has(key uint64) bool { return fs.table.Has(key) }

// Len returns the number of fetches in flight: 0 at quiescence.
func (fs *Fetches[X]) Len() int { return fs.table.Len() }

// Live returns the number of records checked out and not yet returned: 0
// at quiescence, once the last waiter of every fetch has run.
func (fs *Fetches[X]) Live() int { return fs.pool.Live() }
