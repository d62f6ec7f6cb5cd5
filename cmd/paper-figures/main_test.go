package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsExit2: flags the program no longer has, a negative -scale,
// a -fault-rate above 1 and an unknown workload name are usage errors
// caught before the campaign starts a run.
func TestUsageErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-journal", filepath.Join(dir, "x")},
		{"-resume"},
		{"-scale", "-4"},
		{"-fault", "meta-thrash", "-fault-rate", "5"},
		{"-workloads", "lbm,bogus"},
		{"-scale", "65536", "-workloads", "lbm"},
	} {
		// The temporary directory is left out of the subtest name so that
		// the name is the same on every run.
		name := strings.ReplaceAll(strings.Join(args, " "), dir, "DIR")
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-quick", "-fig14", "-j", "1"}, args...)
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 || strings.Contains(stderr.String(), "ran ") {
				t.Fatalf("a rejected invocation ran the campaign; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
			}
		})
	}
	if _, err := os.Stat(filepath.Join(dir, "x")); !os.IsNotExist(err) {
		t.Errorf("a rejected invocation created %s (%v)", filepath.Join(dir, "x"), err)
	}
}

// TestTablesOnlyRunNothing: the three configuration tables print from the
// configuration alone, with no simulation run and so no progress line.
func TestTablesOnlyRunNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table1", "-table2", "-table3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, title := range []string{
		"Table I: system configuration (scale 1/128)",
		"Table II: PageSeer parameters (scale 1/128)",
		"Table III: workloads",
	} {
		if !strings.Contains(out, title) {
			t.Errorf("no %q in the output:\n%s", title, out)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("a tables-only invocation wrote to stderr (a run's progress?):\n%s", stderr.String())
	}
}
