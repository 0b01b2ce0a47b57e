package main

import (
	"bytes"
	"context"
	"io"
	"slices"
	"strings"
	"testing"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/factor"
	"deepdive/internal/kbc"
)

// TestBuildSmoke runs the command end to end on the small Genomics
// corpus with the HTTP tier up: the system is built once (one grounding,
// one materialization), the six iterations stream through the served KB,
// and the run exits clean.
func TestBuildSmoke(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-system", "Genomics", "-serve", "127.0.0.1:0", "-serve-for", "300ms"}, &out); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	for _, line := range []string{"grounded:", "materialized both strategies", "serving on http://", "6 updates applied"} {
		if n := strings.Count(out.String(), line); n != 1 {
			t.Errorf("%q printed %d times, want once\n%s", line, n, out.String())
		}
	}
}

// TestRestartResumesTheLoop cuts a durable first run short after FE1 and
// reruns the command on its directory: the restart submits exactly the
// iterations the restored program lacks, and a third run none.
func TestRestartResumesTheLoop(t *testing.T) {
	dir := t.TempDir()
	sys, err := corpus.SystemByName("Genomics")
	if err != nil {
		t.Fatal(err)
	}
	d := demo{out: io.Discard, sys: sys, dataDir: dir}
	if err := d.build(factor.Ratio, []deepdive.Option{deepdive.WithSeed(1), deepdive.WithDataDir(dir)}); err != nil {
		t.Fatal(err)
	}
	for _, rule := range kbc.IterationNames[:2] {
		if _, err := d.kb.Apply(context.Background(), deepdive.Update{RuleSource: kbc.IterationRules(sys, rule)}); err != nil {
			t.Fatal(err)
		}
	}
	d.kb.CloseNow()

	rows := func(out string) (got []string) {
		for _, rule := range kbc.IterationNames {
			if strings.Contains(out, "\n"+rule+" ") {
				got = append(got, rule)
			}
		}
		return got
	}
	for _, want := range [][]string{kbc.IterationNames[2:], nil} {
		var out bytes.Buffer
		if code := run([]string{"-system", "Genomics", "-data-dir", dir}, &out); code != 0 {
			t.Fatalf("exit %d\n%s", code, out.String())
		}
		if got := rows(out.String()); !slices.Equal(got, want) || !strings.Contains(out.String(), "restarted from") {
			t.Fatalf("restart applied %v, want %v\n%s", got, want, out.String())
		}
	}
}
