package hmc

import (
	"math"
	"strings"
	"testing"

	"pageseer/internal/check"
)

// admissionRig builds a stage with policy pol in front of a test engine
// whose start records each request and returns out.
func admissionRig(pol AdmitPolicy, out int) (*Admission, *[]Ask) {
	_, e, _ := testEngine(5)
	started := new([]Ask)
	e.admit.pol, e.admit.declined, e.admit.start = pol, new(uint64), func(q Ask) int {
		*started = append(*started, q)
		return out
	}
	return &e.admit, started
}

// fill makes the engine refuse new swaps (it reports MaxOps running).
func fill(e *SwapEngine) { e.running = make([]*swap, MaxOps) }

// at runs the stage's engine clock to cycle.
func at(a *Admission, cycle uint64) { a.e.sim.At(cycle, func() {}); a.e.sim.Drain(0) }

var driverPolicy = AdmitPolicy{Depth: 2, Expiry: 100, Upgrade: true, Classes: []string{"regular", "prefetch"}}

// TestAdmissionDriverPolicy walks PageSeer's kind of policy: the bound
// counts units, a stronger class upgrades a queued unit and a weaker one is
// absorbed, the prefetch lane drains first, stale records are skipped and
// a request past its expiry is dropped.
func TestAdmissionDriverPolicy(t *testing.T) {
	a, started := admissionRig(driverPolicy, Exchanged)
	fill(a.e)
	for _, c := range []struct {
		unit  Seg
		class int
		want  int
	}{
		{1, 0, Queued}, {2, 0, Queued},
		{3, 1, Declined}, // two units queued: full
		{1, 0, Queued},   // absorbed
	} {
		if got := a.Submit(Ask{Unit: c.unit, Class: c.class}); got != c.want {
			t.Fatalf("submit unit %d class %d: got %d, want %d", c.unit, c.class, got, c.want)
		}
	}
	at(a, 60)
	if got := a.Submit(Ask{Unit: 1, Class: 1}); got != Queued || a.Pending() != 2 {
		t.Fatalf("upgrade: got %d with %d pending, want Queued with 2", got, a.Pending())
	}
	at(a, 120)
	a.e.running = nil
	a.drain()
	// Unit 1's prefetch record (stamped 60) starts; its regular record is
	// stale; unit 2, queued at 0, has expired.
	if len(*started) != 1 || (*started)[0] != (Ask{Unit: 1, Class: 1, At: 60}) {
		t.Fatalf("drain started %+v, want unit 1 as class 1 stamped 60", *started)
	}
	if a.Pending() != 0 || *a.declined != 2 {
		t.Fatalf("pending %d declined %d, want 0 and 2 (one overflow, one expiry)", a.Pending(), *a.declined)
	}
}

// TestAdmissionRetryAndDrop: a start that answers Queued waits again,
// stamped afresh; a depth-0 stage hands every request to the start, full
// engine or not, and queues nothing.
func TestAdmissionRetryAndDrop(t *testing.T) {
	a, started := admissionRig(driverPolicy, Queued)
	at(a, 10)
	if got := a.Submit(Ask{Unit: 7}); got != Queued || a.Pending() != 1 {
		t.Fatalf("refused start: got %d with %d pending, want Queued with 1", got, a.Pending())
	}
	if len(*started) != 1 || a.lanes[1][0].At != 10 {
		t.Fatalf("refused start not re-queued at cycle 10: %+v", a.lanes)
	}

	d, started := admissionRig(AdmitPolicy{Classes: []string{"regular"}}, EngineFull)
	fill(d.e)
	if got := d.Submit(Ask{Unit: 7}); got != EngineFull || d.Pending() != 0 || len(*started) != 1 {
		t.Fatalf("depth 0: got %d, %d pending, %d starts; want EngineFull, 0, 1", got, d.Pending(), len(*started))
	}
}

// TestAuditCatchesDanglingPending plants an index entry with no lane
// record — the leak a mispaired pop would leave.
func TestAuditCatchesDanglingPending(t *testing.T) {
	a, _ := admissionRig(driverPolicy, Exchanged)
	a.index.Put(3, 0)
	au := &check.Audit{}
	a.e.Audit(au)
	if !strings.Contains(strings.Join(au.Violations(), "\n"), "1 indexed unit(s)") {
		t.Fatalf("audit missed a dangling index entry: %q", au.Violations())
	}
}

// TestAuditCatchesQueuedRequest: a request still queued at quiescence
// fails the audit, for an unindexed FIFO too.
func TestAuditCatchesQueuedRequest(t *testing.T) {
	a, _ := admissionRig(AdmitPolicy{Depth: math.MaxInt, Classes: []string{"regular"}}, Exchanged)
	fill(a.e)
	a.Submit(Ask{Unit: 3})
	a.e.running = nil
	au := &check.Audit{}
	a.e.Audit(au)
	if !strings.Contains(strings.Join(au.Violations(), "\n"), "still queued") {
		t.Fatalf("audit missed a queued request: %q", au.Violations())
	}
}
