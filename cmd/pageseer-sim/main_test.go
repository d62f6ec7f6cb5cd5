package main

import (
	"bytes"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pageseer/internal/workload"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes a run's
// signal handler goroutine makes to stderr.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// quickArgs runs two small workloads on two workers with every per-run
// file sink writing into dir.
func quickArgs(dir string) []string {
	return []string{
		"-workload", "GemsFDTD,lbm", "-j", "2",
		"-instr", "50000", "-warmup", "20000", "-maxcores", "2",
		"-trace", filepath.Join(dir, "trace.json"),
		"-timeline", filepath.Join(dir, "tl.csv"),
		"-pagemap-csv", filepath.Join(dir, "pm.csv"),
	}
}

var perRunFiles = []string{
	"trace-GemsFDTD.json", "trace-lbm.json",
	"tl-GemsFDTD.csv", "tl-lbm.csv",
	"pm-GemsFDTD.csv", "pm-lbm.csv",
}

func TestRunWritesReportsAndPerRunFiles(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr syncBuffer
	if code := run(quickArgs(dir), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	g, l := strings.Index(out, "workload GemsFDTD "), strings.Index(out, "workload lbm ")
	if g < 0 || l < 0 || g > l {
		t.Fatalf("reports missing or out of argument order:\n%s", out)
	}
	for _, name := range perRunFiles {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
	if strings.Contains(out, "faults:") || strings.Contains(out, "watchdog:") {
		t.Errorf("report without -fault or -audit has a faults or watchdog line:\n%s", out)
	}
}

// TestReportShowsFaultsAndWatchdog: -fault adds a line counting what the
// injector forced, and -audit one with the liveness watchdog's samples.
func TestReportShowsFaultsAndWatchdog(t *testing.T) {
	var stdout, stderr syncBuffer
	args := []string{"-workload", "GemsFDTD", "-instr", "400000", "-warmup", "250000", "-maxcores", "4", "-fault", "meta-thrash", "-audit"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	var blocked, forced, stalls, storms, checks, strikes uint64
	if !scanLine(out, "faults:        meta-thrash injected: swap starts blocked %d, metadata misses forced %d, issue stalls %d, storm touches %d",
		&blocked, &forced, &stalls, &storms) || forced == 0 {
		t.Errorf("no faults line counting forced metadata misses:\n%s", out)
	}
	if !scanLine(out, "watchdog:      %d checks, max %d consecutive without progress", &checks, &strikes) || checks == 0 {
		t.Errorf("no watchdog line with samples taken:\n%s", out)
	}
}

// scanLine reports whether some line of out matches format, filling args.
func scanLine(out, format string, args ...any) bool {
	for _, line := range strings.Split(out, "\n") {
		if n, _ := fmt.Sscanf(line, format, args...); n == len(args) {
			return true
		}
	}
	return false
}

// TestInterruptStopsQueuedRuns sends SIGINT to a serial multi-workload
// run once its first run has finished: the session's handler lets the
// in-flight run finish, starts no further run, prints how many runs
// finished and exits 1, and every finished run still prints its report.
func TestInterruptStopsQueuedRuns(t *testing.T) {
	// While registered, this channel also keeps a SIGINT from killing the
	// test binary if it lands outside the session's handler.
	caught := make(chan os.Signal, 1)
	signal.Notify(caught, os.Interrupt)
	defer signal.Stop(caught)

	dir := t.TempDir()
	wls := workload.AllWorkloadNames()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-workload", "all", "-j", "1", "-instr", "300000", "-warmup", "50000", "-maxcores", "2",
			"-timeline", filepath.Join(dir, "tl.csv")}, &stdout, &stderr)
	}()
	first := filepath.Join(dir, "tl-"+wls[0]+".csv")
	for {
		if _, err := os.Stat(first); err == nil {
			break
		}
		select {
		case code := <-done:
			t.Fatalf("run exited %d before its first run finished; stderr:\n%s", code, stderr.String())
		case <-time.After(time.Millisecond):
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if code := <-done; code != 1 {
		t.Fatalf("interrupted run exited %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	var finished int
	if !scanLine(stderr.String(), "stopped: %d run(s) finished; rerunning the same command repeats the campaign from the start", &finished) {
		t.Errorf("no stop message on stderr:\n%s", stderr.String())
	} else if reported := strings.Count(out, "workload "); finished != reported {
		t.Errorf("stop message counts %d finished runs, %d reports printed", finished, reported)
	}
	if !strings.Contains(out, "workload "+wls[0]+" ") {
		t.Errorf("the run finished before the signal printed no report:\n%s", out)
	}
	last := wls[len(wls)-1]
	if strings.Contains(out, "workload "+last+" ") {
		t.Errorf("a run queued behind the signal still ran (%s)", last)
	}
	for _, w := range wls {
		_, err := os.Stat(filepath.Join(dir, "tl-"+w+".csv"))
		if reported := strings.Contains(out, "workload "+w+" "); reported != (err == nil) {
			t.Errorf("%s: report printed %v, timeline written %v", w, reported, err == nil)
		}
	}
}

// TestUsageErrorsExit2: negative values of the int flags that treat 0 as
// "default", an unknown fault kind, a fault rate that is not a probability,
// an unknown scheme and a timeline with no sampling interval are usage
// errors caught before any run starts.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "-4"},
		{"-maxcores", "-2"},
		{"-j", "-1"},
		{"-scale", "-4", "-maxcores", "-2", "-j", "-1"},
		{"-fault", "no-such-fault"},
		{"-fault", "meta-thrash", "-fault-rate", "-1"},
		{"-fault", "meta-thrash", "-fault-rate", "5"},
		{"-fault", "meta-thrash", "-fault-rate", "NaN"},
		{"-scheme", "bogus"},
		{"-timeline", "tl.csv", "-timeline-every", "0"},
		{"-workload", "leslie3d", "-maxcores", "0", "-scale", "2048"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr syncBuffer
			args := append([]string{"-workload", "lbm", "-instr", "20000", "-warmup", "20000", "-maxcores", "2"}, args...)
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if out := stdout.String(); out != "" {
				t.Fatalf("a rejected invocation printed a report:\n%s", out)
			}
		})
	}
}
