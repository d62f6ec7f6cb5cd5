package mem

import (
	"fmt"
	"strings"
	"testing"
)

// logFetches returns a file whose Fill appends "fill <key> <data>" to log
// and resets the payload.
func logFetches(log *[]string) *Fetches[int] {
	fs := &Fetches[int]{}
	fs.Fill = func(key uint64, data *int) {
		*log = append(*log, fmt.Sprintf("fill %d %d", key, *data))
		*data = 0
	}
	return fs
}

// TestFetchesWaitersRunInArrivalOrder: only the first Join opens the
// fetch, a nil waiter parks nothing, and Done removes the key, runs Fill,
// then runs the waiters in the order they joined.
func TestFetchesWaitersRunInArrivalOrder(t *testing.T) {
	var log []string
	fs := logFetches(&log)
	waiter := func(name string) func() {
		return func() {
			log = append(log, fmt.Sprintf("%s has=%v", name, fs.Has(7)))
		}
	}
	f, fresh := fs.Join(7, waiter("a"))
	if !fresh {
		t.Fatal("first Join did not open a fetch")
	}
	f.Data = 42
	for _, name := range []string{"b", "", "c"} {
		w := waiter(name)
		if name == "" {
			w = nil
		}
		if g, fresh := fs.Join(7, w); fresh || g != f {
			t.Fatalf("Join(7) while in flight: fresh=%v, same record=%v", fresh, g == f)
		}
	}
	if !fs.Has(7) || fs.Has(8) || fs.Len() != 1 || fs.Live() != 1 {
		t.Fatalf("in flight: Has(7)=%v Has(8)=%v Len=%d Live=%d", fs.Has(7), fs.Has(8), fs.Len(), fs.Live())
	}
	f.Done()
	want := "fill 7 42|a has=false|b has=false|c has=false"
	if got := strings.Join(log, "|"); got != want {
		t.Fatalf("completion order %q, want %q", got, want)
	}
	if fs.Len() != 0 || fs.Live() != 0 {
		t.Fatalf("after Done: Len=%d Live=%d, want 0 and 0", fs.Len(), fs.Live())
	}
}

// TestFetchesRejoinOpensFreshFetch: a waiter that joins the same key from
// inside its callback opens a fresh fetch on a fresh record, while the
// completing record stays checked out until its last waiter has run.
func TestFetchesRejoinOpensFreshFetch(t *testing.T) {
	var log []string
	fs := logFetches(&log)
	var again *Fetch[int]
	f, _ := fs.Join(3, func() {
		g, fresh := fs.Join(3, nil)
		if !fresh {
			t.Error("re-Join from a waiter merged into the completing fetch")
		}
		again = g
	})
	liveInLast := -1
	fs.Join(3, func() { liveInLast = fs.Live() })
	f.Done()
	if again == nil || again == f {
		t.Fatal("re-Join did not get a record of its own")
	}
	if liveInLast != 2 {
		t.Fatalf("Live during the last waiter = %d, want 2 (completing and re-opened)", liveInLast)
	}
	if !fs.Has(3) || fs.Len() != 1 || fs.Live() != 1 {
		t.Fatalf("after Done: Has(3)=%v Len=%d Live=%d, want the re-opened fetch only", fs.Has(3), fs.Len(), fs.Live())
	}
	again.Done()
	if fs.Len() != 0 || fs.Live() != 0 {
		t.Fatalf("after the second Done: Len=%d Live=%d, want 0 and 0", fs.Len(), fs.Live())
	}
	if g, _ := fs.Join(9, nil); g != again {
		t.Fatal("Join did not reuse the record returned last")
	}
}

// TestFetchesDoubleDonePanics: completing a fetch that is no longer in
// flight is an owner bug (a fill without its MSHR), caught at once.
func TestFetchesDoubleDonePanics(t *testing.T) {
	var log []string
	fs := logFetches(&log)
	f, _ := fs.Join(5, nil)
	f.Done()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no fetch in flight") {
			t.Fatalf("second Done: recovered %v, want a no-fetch-in-flight panic", r)
		}
	}()
	f.Done()
}

// TestZeroAllocFetches: once the pool and the waiter arrays have warmed, a
// merge-heavy round (eight fetches, three mergers each) allocates nothing.
func TestZeroAllocFetches(t *testing.T) {
	fs := &Fetches[int]{}
	fs.Fill = func(_ uint64, data *int) { *data = 0 }
	waiter := func() {}
	done := make([]func(), 0, 8)
	round := func() {
		for k := uint64(0); k < 8; k++ {
			f, _ := fs.Join(k*64, waiter)
			f.Data++
			for range 3 {
				fs.Join(k*64, waiter)
			}
			done = append(done, f.Done)
		}
		for i, d := range done {
			d()
			done[i] = nil
		}
		done = done[:0]
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("merge-heavy round allocates %.1f times, want 0", allocs)
	}
	if fs.Len() != 0 || fs.Live() != 0 {
		t.Fatalf("after the rounds: Len=%d Live=%d, want 0 and 0", fs.Len(), fs.Live())
	}
}
