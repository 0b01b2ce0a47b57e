package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// value is one measured number with its unit; N is the sample count
// behind it where that applies.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// gate is one correctness check of a run.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// budgetTable is a per-layer decomposition of one end-to-end latency.
type budgetTable struct {
	Of          string      `json:"of"`          // the end-to-end metric decomposed
	ObservedMS  float64     `json:"observed_ms"` // its untraced value
	SumMS       float64     `json:"sum_ms"`
	ResidualPct float64     `json:"residual_pct"` // (sum − observed) ÷ observed × 100
	Requests    int         `json:"requests"`
	Rows        []budgetRow `json:"rows"`
	Derived     []budgetRow `json:"derived,omitempty"` // probe-based split of a row
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Gates     []gate           `json:"gates"`
	Named     map[string]value `json:"named"`      // the workload's own metric names
	EndToEnd  map[string]value `json:"end_to_end"` // untraced pass only
	PerLayer  map[string]value `json:"per_layer"`  // traced pass only
	Budgets   []budgetTable    `json:"budgets,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
	ElapsedS  float64          `json:"elapsed_s"` // the whole run: set-up, window, checks, probes
	TraceFile string           `json:"trace_file,omitempty"`
	samples   map[string][]float64
}

func newResult(cfg *config) *result {
	return &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Named: map[string]value{}, EndToEnd: map[string]value{}, PerLayer: map[string]value{}, samples: map[string][]float64{}}
}

func (r *result) gate(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// count adds operations to the attempted/failed totals.
func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *result) named(name string, v float64, unit string, n int) {
	r.Named[name] = value{Value: finite(v), Unit: unit, N: n}
}

// finite maps the NaN and ±Inf of an empty sample set to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// e2e sets the contract's end-to-end metrics, in registry order (see
// opMeaning for what the two cost slots hold on each workload).
func (r *result) e2e(setupS, opCPUms, auxCPUms, rssMB float64) {
	for i, v := range []float64{setupS, opCPUms, auxCPUms, rssMB} {
		r.EndToEnd[endToEnd[i].Name] = value{Value: finite(v), Unit: endToEnd[i].Unit}
	}
}

// wall records one of the issue's wall-clock metrics: printed by name in
// every pass, and reported as the per-layer group "wall." by the traced
// pass.
func (r *result) wall(name string, v float64, n int) {
	full := "wall." + name
	for _, d := range perLayer {
		if d.Name == full {
			r.Named[name] = value{Value: finite(v), Unit: d.Unit, N: n}
			if r.Traced {
				r.PerLayer[full] = value{Value: finite(v), Unit: d.Unit}
			}
			return
		}
	}
	panic("bench: unregistered wall-clock metric " + name)
}

// keep stores a raw sample set; they are written to samples-<workload>.json
// next to the trace file, for looking at a distribution after the run.
func (r *result) keep(name string, xs []float64) {
	r.samples[name] = append([]float64(nil), xs...)
}

func (r *result) layer(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			r.PerLayer[name] = value{Value: finite(v), Unit: d.Unit}
			return
		}
	}
	panic("bench: unregistered per-layer metric " + name)
}

// correct reports whether every gate passed and nothing failed.
func (r *result) correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return r.Failed == 0 && r.Attempted > 0
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// contractLine is the last line of standard output: exactly the keys the
// benchmark contract names, with every end-to-end metric (untraced) or
// every per-layer metric (traced).
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if r.Traced {
		for _, d := range perLayer {
			metrics[d.Name] = mv{r.PerLayer[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = mv{r.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// print writes the human-readable report: every metric by name with its
// unit, the gates, and the budget tables.
func (r *result) print(w io.Writer) {
	mode := "end-to-end pass (tracing off)"
	if r.Traced {
		mode = "traced pass (per-layer)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  window=%gs  %s  (whole run %.1fs) ==\n", r.Workload, r.Seed, r.Seconds, mode, r.ElapsedS)
	names := make([]string, 0, len(r.Named))
	for n := range r.Named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Named[n]
		if v.N > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", n, v.Value, v.Unit, v.N)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "  %-34s %14.6f share  (%d failed of %d attempted)\n", "failed_share", r.failedShare(), r.Failed, r.Attempted)
	if !r.Traced {
		fmt.Fprintln(w, "  -- end-to-end (held to BENCHMARK.json's bounds) --")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-14s %14.4f %-4s %s\n", d.Name, r.EndToEnd[d.Name].Value, d.Unit, opMeaning[r.Workload][d.Name])
		}
	} else {
		fmt.Fprintln(w, "  -- per-layer --")
		for _, d := range perLayer {
			if v, ok := r.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v.Value, d.Unit)
			}
		}
	}
	for _, b := range r.Budgets {
		fmt.Fprintf(w, "  -- budget of %s: observed %.4f ms, parts sum to %.4f ms, residual %+.1f%% (median band, %d requests) --\n",
			b.Of, b.ObservedMS, b.SumMS, b.ResidualPct, b.Requests)
		for _, row := range b.Rows {
			fmt.Fprintf(w, "     %-30s %12.4f ms  %5.1f%%  ×%.2f/request\n", row.Name, row.SelfMS, row.Share*100, row.Count)
		}
		for _, row := range b.Derived {
			fmt.Fprintf(w, "       of which %-21s %12.4f ms  %5.1f%%  (probe)\n", row.Name, row.SelfMS, row.Share*100)
		}
	}
	for _, g := range r.Gates {
		mark := "ok  "
		if !g.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  gate %s %-28s %s\n", mark, g.Name, g.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}

// envBlock stamps a run with what it ran on.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OSArch     string `json:"os_arch"`
	// Connections is the load generator's connection plan: one process,
	// at most nproc connections per traffic class.
	Connections string `json:"connections"`
}

func readEnv() envBlock {
	e := envBlock{
		Commit:     os.Getenv("BENCH_COMMIT"),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   "unknown",
		Connections: fmt.Sprintf("single load-generator process; ≤ %d connections per traffic class (updates, reads), plus 1 SSE subscriber and 1 background reader/writer",
			loadConns()),
	}
	if e.Commit == "" {
		// The acceptance driver's checkout is not a git repository; there the
		// commit is whatever BENCH_COMMIT says, else unknown.
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		} else {
			e.Commit = "unknown"
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					e.CPUModel = strings.TrimSpace(line[i+1:])
					break
				}
			}
		}
	}
	return e
}

// loadConns is the number of connections one traffic class may use: the
// box's core count, capped at 2.
func loadConns() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (e envBlock) print(w io.Writer, seed int64) {
	fmt.Fprintf(w, "env: commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d %s seed=%d\n",
		e.Commit, e.GoVersion, e.CPUModel, e.NProc, e.GOMAXPROCS, e.OSArch, seed)
	fmt.Fprintf(w, "env: %s\n", e.Connections)
}

// peakRSSMB reads VmHWM of a process ("self" or a pid) in MB.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
