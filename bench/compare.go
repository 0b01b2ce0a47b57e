package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, the contract the acceptance driver
// reads; -compare takes its bounds from it, not from the registry, so a
// comparison applies exactly what the driver would.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchMetric has a bound only when it is an end-to-end metric.
type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the measured window BENCHMARK.json asks the driver for.
const runSeconds = 25

// describeBenchmark renders BENCHMARK.json from the registry (metrics.go),
// so the file the driver reads and the names the harness prints cannot
// drift apart: go run . -describe > ../BENCHMARK.json.
func describeBenchmark() string {
	b := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		b.Workloads = append(b.Workloads, benchWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		b.EndToEnd = append(b.EndToEnd, benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic(err) // strings and numbers always marshal
	}
	return string(data)
}

// findBenchmarkFile looks for BENCHMARK.json in the working directory
// and its parent (the harness runs from the root or from bench/).
func findBenchmarkFile() (*benchmarkFile, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var b benchmarkFile
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &b, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// verdict compares one metric on one workload between two sets of runs.
// worse is how much b's median is worse than a's, as a share of a's
// median (negative when b is better); spread is the wider of the two
// sets' interquartile ranges as a share of its median.
func verdict(a, b []float64, better string, bound float64) (word string, worse, spreadMax float64) {
	ma, mb := medianOf(a), medianOf(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	spreadMax = spread(a)
	if s := spread(b); s > spreadMax {
		spreadMax = s
	}
	switch {
	case len(a) >= 4 && len(b) >= 4 && spreadMax > bound:
		return "unresolved", worse, spreadMax
	case worse > bound:
		return "regressed", worse, spreadMax
	default:
		return "unchanged", worse, spreadMax
	}
}

// compareFiles prints, per workload, one row per end-to-end metric:
// unchanged, regressed, or unresolved when the run-to-run spread is
// wider than the metric's bound. Exit code 1 when anything regressed or
// a failure count rose, 0 otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	bench, err := findBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	load := func(path string) (*resultFile, bool) {
		var f resultFile
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench -compare: %s: %v\n", path, err)
			return nil, false
		}
		return &f, true
	}
	fa, ok := load(pathA)
	if !ok {
		return 2
	}
	fb, ok := load(pathB)
	if !ok {
		return 2
	}
	fmt.Fprintf(w, "a: %s  commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d\n", pathA, fa.Env.Commit, fa.Env.GoVersion, fa.Env.CPUModel, fa.Env.NProc, fa.Env.GOMAXPROCS)
	fmt.Fprintf(w, "b: %s  commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d\n", pathB, fb.Env.Commit, fb.Env.GoVersion, fb.Env.CPUModel, fb.Env.NProc, fb.Env.GOMAXPROCS)
	collect := func(f *resultFile, workload, metric string) (vals []float64, failed, attempted int) {
		for _, r := range f.Runs {
			if r.Workload != workload || r.Traced {
				continue
			}
			if v, ok := r.EndToEnd[metric]; ok {
				vals = append(vals, v.Value)
			}
			if metric == bench.EndToEnd[0].Name {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
		return
	}
	bad := false
	var failedLines []string
	for _, wl := range bench.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		fmt.Fprintf(w, "  %-16s %6s %14s %14s %9s %8s %7s  %s\n", "metric", "unit", "median a", "median b", "b worse", "spread", "bound", "verdict")
		for i, m := range bench.EndToEnd {
			a, failedA, attA := collect(fa, wl.Name, m.Name)
			b, failedB, attB := collect(fb, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "  %-16s %6s %14s %14s %9s %8s %7.0f%%  missing (a has %d runs, b has %d)\n", m.Name, m.Unit, "-", "-", "-", "-", *m.Bound*100, len(a), len(b))
				continue
			}
			word, worse, sp := verdict(a, b, m.Better, *m.Bound)
			if word == "regressed" {
				bad = true
			}
			fmt.Fprintf(w, "  %-16s %6s %14.4f %14.4f %+8.1f%% %7.1f%% %6.0f%%  %s (n=%d/%d)\n",
				m.Name, m.Unit, medianOf(a), medianOf(b), worse*100, sp*100, *m.Bound*100, word, len(a), len(b))
			if i == 0 {
				shareA, shareB := share(failedA, attA), share(failedB, attB)
				word := "unchanged"
				if shareB > shareA+0.001 {
					word, bad = "regressed", true
				}
				failedLines = append(failedLines, fmt.Sprintf("%s failed_share: a %.6f (%d of %d), b %.6f (%d of %d): %s (bound +0.001 absolute)",
					wl.Name, shareA, failedA, attA, shareB, failedB, attB, word))
			}
		}
	}
	fmt.Fprintln(w)
	for _, line := range failedLines {
		fmt.Fprintln(w, line)
	}
	if bad {
		return 1
	}
	return 0
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
