package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutPinned: the example prints exactly testdata/stdout.golden.
func TestStdoutPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("stdout:\n%s\nwant:\n%s", out.String(), want)
	}
}
