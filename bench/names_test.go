package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Metric names, units and workload reasons stay inside the benchmark
// contract's limits, and every name is used once.
func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef) {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]{1,64}", kind, d.Name)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %s: unit %q is outside the contract's charset", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric name %s is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end-to-end", endToEnd)
	check("per-layer", perLayer)
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q", w.Name)
		}
		seen[w.Name] = true
		if len([]rune(w.Why)) > 200 || len(w.Why) == 0 {
			t.Errorf("workload %s: why has %d characters (1..200 allowed)", w.Name, len([]rune(w.Why)))
		}
		for _, d := range endToEnd {
			if opMeaning[w.Name][d.Name] == "" {
				t.Errorf("workload %s does not say what %s means for it", w.Name, d.Name)
			}
		}
	}
}

// BENCHMARK.json is generated from the registry by hand; this keeps the
// two from drifting apart.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to bench/: ", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q / registry %q (or their reasons differ)", i, b.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got []benchMetric, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the registry %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounds && (g.Bound == nil || *g.Bound != d.Bound)) || (!bounds && g.Bound != nil) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, registry %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the harness's default window is %d", b.RunSeconds, runSeconds)
	}
}

// The last line of a run is exactly the contract's object: every
// end-to-end metric untraced, every per-layer metric traced.
func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := newResult(&config{workload: "wire_reads", seed: 1, seconds: 1, trace: traced})
		r.count(10, 0)
		r.e2e(1, 2, 3, 4)
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		raw := r.contractLine()
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		_ = json.Unmarshal([]byte(raw), &keys)
		if len(keys) != 4 || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Errorf("contract line keys: %s", raw)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(line.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or mis-united on the line", traced, d.Name)
			}
		}
	}
}
