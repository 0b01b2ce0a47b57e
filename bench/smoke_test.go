package main

import (
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the harness binary: the
// wire workloads re-exec os.Executable() with -role=server.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role=server" {
		os.Exit(serverMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// The -smoke path: all four workloads, both passes, toy sizes, every
// correctness gate, in about ten seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	dir := t.TempDir()
	start := time.Now()
	if code := run([]string{"-smoke", "-seed", "3", "-outdir", dir}); code != 0 {
		t.Fatalf("bench -smoke exited %d", code)
	}
	t.Logf("smoke run took %v", time.Since(start))
	for _, w := range workloadDefs {
		if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("no trace file for %s: %v", w.Name, err)
		}
	}
}
