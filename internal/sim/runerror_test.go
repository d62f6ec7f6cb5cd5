package sim

import (
	"errors"
	"strings"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/hmc"
)

// bombManager serves requests through Static until its fuse runs out, then
// panics mid-event — the in-run crash Run must isolate.
type bombManager struct {
	*hmc.Static
	fuse int
}

func (m *bombManager) HandleRequest(r *hmc.Request) {
	if m.fuse--; m.fuse < 0 {
		panic("bomb: deliberate mid-run failure")
	}
	m.Static.HandleRequest(r)
}

func TestRunPanicBecomesRunError(t *testing.T) {
	cfg := tinyConfig(SchemeStatic, "lbm")
	sys, err := BuildWithManager(cfg, func(ctl *hmc.Controller) hmc.Manager {
		m := &bombManager{Static: hmc.NewStatic(ctl), fuse: 2000}
		ctl.SetManager(m)
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err == nil {
		t.Fatal("Run swallowed the panic")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("Run() error = %v (%T), want *RunError", err, err)
	}
	if re.Workload != "lbm" || re.Seed != cfg.Seed {
		t.Fatalf("RunError identity = %s/%s seed %d", re.Workload, re.Scheme, re.Seed)
	}
	if re.Cycle == 0 || re.Events == 0 {
		t.Fatalf("RunError clock empty: cycle=%d events=%d", re.Cycle, re.Events)
	}
	if re.Cause == nil || !strings.Contains(re.Cause.Error(), "bomb") {
		t.Fatalf("RunError.Cause = %v", re.Cause)
	}
	if !strings.Contains(re.Stack, "HandleRequest") {
		t.Fatal("RunError.Stack missing the panicking frame")
	}
	for _, want := range []string{"pageseer crashdump", "workload=lbm", "cause:", "event queue", "stack:"} {
		if !strings.Contains(re.Crashdump, want) {
			t.Fatalf("crashdump missing %q:\n%s", want, re.Crashdump)
		}
	}
	if res.Instructions != 0 {
		t.Fatal("failed run leaked partial results")
	}
}

// stuckManager serves a while, then stops completing requests but keeps the
// event queue alive with a heartbeat — the classic livelock the watchdog
// exists to catch (without it the run would spin to the event bound).
type stuckManager struct {
	*hmc.Static
	ctl  *hmc.Controller
	fuse int
}

func (m *stuckManager) HandleRequest(r *hmc.Request) {
	if m.fuse--; m.fuse < 0 {
		if m.fuse == -1 { // first dropped request: start the idle heartbeat
			var beat func()
			beat = func() { m.ctl.Sim.After(1000, beat) }
			beat()
		}
		return // drop the request: no completion, no progress
	}
	m.Static.HandleRequest(r)
}

func TestWatchdogAbortsWedgedRun(t *testing.T) {
	cfg := tinyConfig(SchemeStatic, "lbm")
	cfg.Audit = true // the watchdog arms with the audits
	sys, err := BuildWithManager(cfg, func(ctl *hmc.Controller) hmc.Manager {
		m := &stuckManager{Static: hmc.NewStatic(ctl), ctl: ctl, fuse: 500}
		ctl.SetManager(m)
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("Run() = %v, want *RunError", err)
	}
	var se *check.StallError
	if !errors.As(re.Cause, &se) {
		t.Fatalf("cause = %v, want *check.StallError", re.Cause)
	}
	if se.Strikes == 0 || se.Window == 0 {
		t.Fatalf("StallError forensics empty: %+v", se)
	}
	if !strings.Contains(re.Crashdump, "no forward progress") {
		t.Fatal("crashdump missing the stall diagnosis")
	}
}
