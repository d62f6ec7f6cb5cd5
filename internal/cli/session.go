package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"

	"pageseer/internal/figures"
	"pageseer/internal/obs"
)

// Session is one invocation's run lifecycle around its figures.Runner: the
// two-stage SIGINT/SIGTERM handler and the end-of-run failure report.
type Session struct {
	Runner *figures.Runner

	flags   *Flags
	stderr  io.Writer
	unwatch context.CancelFunc
	done    chan struct{}  // closed by Finish: the signal handler stops
	exited  sync.WaitGroup // the signal handler
}

// Open starts the lifecycle of a campaign over opts: it builds the runner
// with -j and -run-timeout and arms the signal handler. Every Open is ended
// by Finish.
func (f *Flags) Open(opts figures.Options, stderr io.Writer) *Session {
	s := &Session{flags: f, stderr: stderr, done: make(chan struct{})}
	opts.Parallelism = f.Jobs
	opts.RunTimeout = f.RunTimeout
	s.Runner = figures.NewRunner(opts)

	// Graceful shutdown: the first SIGINT/SIGTERM stops launching new runs
	// while in-flight runs finish; a second signal aborts the in-flight
	// runs at their next event boundary, so they fail into
	// crashdump-carrying *sim.RunErrors instead of being lost silently.
	signals, unwatch := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	s.unwatch = unwatch
	s.exited.Add(1)
	go func() {
		defer s.exited.Done()
		select {
		case <-signals.Done():
		case <-s.done:
			return
		}
		s.Runner.Stop()
		fmt.Fprintln(stderr, "\ninterrupted: no new runs will start; in-flight runs finish (signal again to abort them)")
		second := make(chan os.Signal, 1)
		signal.Notify(second, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(second)
		select {
		case <-second:
			fmt.Fprintln(stderr, "interrupted again: aborting in-flight runs")
			s.Runner.AbortActive("run aborted by signal")
		case <-s.done:
		}
	}()
	return s
}

// Finish ends the invocation. If a signal stopped the runner, it says how
// many runs finished and that rerunning the command repeats the campaign
// (runs are deterministic, so a rerun reproduces them). It lists every
// failed run on stderr, writing its crashdump into -crashdump-dir, then
// disarms the signal handler and returns once the handler has stopped.
// failed reports a failure the caller saw itself. Finish returns the exit
// status: 1 on a stop or any failure, else 0.
func (s *Session) Finish(failed bool) int {
	defer func() {
		close(s.done)
		s.exited.Wait()
		s.unwatch()
	}()
	if s.Runner.Stopping() {
		failed = true
		fmt.Fprintf(s.stderr, "stopped: %d run(s) finished; rerunning the same command repeats the campaign from the start\n",
			s.Runner.Finished())
	}
	if fails := s.Runner.Failures(); len(fails) > 0 {
		failed = true
		fmt.Fprintf(s.stderr, "\n%d run(s) failed:\n", len(fails))
		for _, f := range fails {
			fmt.Fprintf(s.stderr, "  %s/%s: %v\n", f.Workload, f.Scheme, f.Err.Cause)
			path := filepath.Join(s.flags.CrashdumpDir, fmt.Sprintf("crashdump-%s-%s.txt", f.Workload, f.Scheme))
			if err := os.WriteFile(path, []byte(f.Err.Crashdump), 0o644); err != nil {
				fmt.Fprintln(s.stderr, "  crashdump:", err)
			} else {
				fmt.Fprintln(s.stderr, "  crashdump written to", path)
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// WriteFile creates path and fills it with write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTable writes rows as CSV (in cols' shape) to csvPath and as JSON to
// jsonPath; an empty path is skipped.
func WriteTable[T any](rows []T, cols obs.Columns[T], csvPath, jsonPath string) error {
	if csvPath != "" {
		if err := WriteFile(csvPath, func(w io.Writer) error { return cols.WriteCSV(w, rows) }); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		return WriteFile(jsonPath, func(w io.Writer) error { return obs.WriteJSON(w, rows) })
	}
	return nil
}
