package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestExportedTablesPinned pins the bytes of the three campaign tables
// paper-figures exports, as CSV and as JSON, over the quick campaign:
// effectiveness, CPI stacks and churn. It also pins the text of every
// table and figure -all prints with them.
func TestExportedTablesPinned(t *testing.T) {
	want := map[string]string{
		"effectiveness.csv":  "bba0df51511f7237",
		"effectiveness.json": "7655426f39360ae1",
		"cpistack.csv":       "1d046412306125d2",
		"cpistack.json":      "3c2f967d2e1ac645",
		"churn.csv":          "8e97325cf57c299b",
		"churn.json":         "6ded91034f7c3772",
	}
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	args := []string{"-quick", "-quiet", "-j", "2", "-all",
		"-effectiveness-csv", out("effectiveness.csv"), "-effectiveness-json", out("effectiveness.json"),
		"-cpistack-csv", out("cpistack.csv"), "-cpistack-json", out("cpistack.json"),
		"-churn-csv", out("churn.csv"), "-churn-json", out("churn.json")}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	h := sha256.Sum256(stdout.Bytes())
	if got := hex.EncodeToString(h[:8]); got != "688c5c966cb482e9" {
		t.Errorf("stdout: sha256 %s, want 688c5c966cb482e9", got)
	}
	for name, sum := range want {
		b, err := os.ReadFile(out(name))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		if got := hex.EncodeToString(h[:8]); got != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got, sum)
		}
	}
}
