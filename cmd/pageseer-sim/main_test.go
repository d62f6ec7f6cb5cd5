package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes a run's
// signal handler and server goroutines make to stderr.
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

	// The same invocation under -serve runs through the same runner and
	// prints and writes byte-identical output. The server outlives the runs
	// until a signal, which the session's handler catches.
	served := t.TempDir()
	var servedOut syncBuffer
	stderr = syncBuffer{}
	done := make(chan int, 1)
	go func() { done <- run(append(quickArgs(served), "-serve", "127.0.0.1:0"), &servedOut, &stderr) }()
	deadline := time.Now().Add(2 * time.Minute)
	for !strings.Contains(stderr.String(), "introspection server still running") {
		select {
		case code := <-done:
			t.Fatalf("-serve run exited %d before serving; stderr:\n%s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("-serve run never finished; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if code := <-done; code != 0 {
		t.Fatalf("-serve run exited %d; stderr:\n%s", code, stderr.String())
	}
	if servedOut.String() != out {
		t.Errorf("stdout under -serve differs from the plain run:\n%s\nwant:\n%s", servedOut.String(), out)
	}
	for _, name := range perRunFiles {
		want, err1 := os.ReadFile(filepath.Join(dir, name))
		got, err2 := os.ReadFile(filepath.Join(served, name))
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			t.Errorf("%s under -serve differs from the plain run (errors %v, %v)", name, err1, err2)
		}
	}
}

// TestJournalRejectsPerRunFiles: a run replayed from a journal has no
// system to write files from, so -journal with a per-run sink is a usage
// error.
func TestJournalRejectsPerRunFiles(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr syncBuffer
	args := []string{"-workload", "lbm", "-journal", filepath.Join(dir, "j"), "-trace", filepath.Join(dir, "t.json")}
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "j")); !os.IsNotExist(err) {
		t.Fatalf("rejected invocation still created its journal (%v)", err)
	}
}
