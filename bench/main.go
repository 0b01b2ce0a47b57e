// Command bench is the repository's one benchmark harness: four
// workloads over the served KB stack (deepdive.OpenKB, the update queue,
// KB.Serve HTTP+SSE, WithDataDir durability), end-to-end metrics measured
// with tracing off, and a traced pass that attributes each latency to the
// layers. See README.md.
//
//	cd bench && go run . -seed 1                         # all four workloads, both passes
//	cd bench && go run . -workload wire_reads -seed 1    # one workload, end-to-end pass
//	cd bench && go run . -compare a.json b.json          # apply BENCHMARK.json's bounds
//
// The acceptance driver runs it through run.sh as
// <command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
// and reads the JSON object on the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// benchSetups is how many set-ups an end-to-end run times.
const benchSetups = 5

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every corpus size factor; 1 is the benchmark, the
	// smoke path uses less.
	scale float64
	// setups is how many times the workload sets its KB up (the wire
	// workloads keep the last server, restart_recover cycles over all the
	// KBs): set-up time is the lower quartile of that many. The traced
	// pass and the smoke path set up once.
	setups int
	// sweepFor is how long each Gibbs runtime is timed for in the traced
	// pass's sweep probe.
	sweepFor time.Duration
	// ref is the reference unit the in-process workloads run between
	// their operations (ref.go).
	ref *refUnit
	// outDir receives trace files; scratch holds data directories and is
	// removed when the run ends.
	outDir  string
	scratch string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-role=server" {
		os.Exit(serverMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (devloop_rules, stream_docs, wire_reads, restart_recover); default all four, both passes")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", runSeconds, "measured window per run, seconds")
	trace := fs.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass reporting the per-layer metrics")
	smoke := fs.Bool("smoke", false, "all four workloads, both passes, at toy size in about 10 s (what the tests run)")
	runs := fs.Int("runs", 1, "with no -workload: repeat over this many consecutive seeds")
	out := fs.String("out", "", "append every run's result to this JSON file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	describe := fs.Bool("describe", false, "print BENCHMARK.json as the metric registry defines it")
	outDir := fs.String("outdir", "", "directory for trace files (default bench/out, or out when run inside bench/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		fmt.Println(describeBenchmark())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *outDir == "" {
		*outDir = defaultOutDir()
	}
	env := readEnv()

	one := func(workload string, seed int64, seconds, scale float64, trace bool) (*result, error) {
		cfg := &config{workload: workload, seed: seed, seconds: seconds, trace: trace, scale: scale, outDir: *outDir, setups: benchSetups, sweepFor: 150 * time.Millisecond}
		if trace || *smoke {
			cfg.setups = 1
		}
		if *smoke {
			cfg.sweepFor = 20 * time.Millisecond
		}
		r, err := runWorkload(context.Background(), cfg)
		if err != nil {
			return nil, err
		}
		if *out != "" {
			if err := appendResult(*out, env, r); err != nil {
				return r, err
			}
		}
		return r, nil
	}

	// all runs the four workloads, both passes each, on one seed.
	all := func(seed int64, seconds, scale float64) (ok bool, err error) {
		env.print(os.Stdout, seed)
		ok = true
		for _, w := range workloadDefs {
			for _, traced := range []bool{false, true} {
				r, err := one(w.Name, seed, seconds, scale, traced)
				if err != nil {
					return false, fmt.Errorf("%s: %w", w.Name, err)
				}
				r.print(os.Stdout)
				ok = ok && r.correct()
			}
		}
		return ok, nil
	}

	ok := true
	switch {
	case *smoke:
		var err error
		if ok, err = all(*seed, 0.4, 0.1); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	case *workload != "":
		if !isWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		env.print(os.Stdout, *seed)
		r, err := one(*workload, *seed, *seconds, 1, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
			return 1
		}
		r.print(os.Stdout)
		fmt.Println(r.contractLine())
		ok = r.correct()
	default:
		for i := 0; i < *runs; i++ {
			good, err := all(*seed+int64(i), *seconds, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			ok = ok && good
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// defaultOutDir is bench/out relative to the repository root, wherever
// the harness was started from (the root, via run.sh, or bench/ itself).
func defaultOutDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// runWorkload runs one workload in one mode inside a private scratch
// directory, and writes the trace file of a traced pass.
func runWorkload(ctx context.Context, cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch
	cfg.ref = newRefUnit()
	tr := newTracer(cfg.trace)
	start := time.Now()
	var r *result
	switch cfg.workload {
	case "devloop_rules":
		r, err = runDevloop(ctx, cfg, tr)
	case "stream_docs":
		r, err = runStream(ctx, cfg, tr)
	case "wire_reads":
		r, err = runReads(ctx, cfg, tr)
	case "restart_recover":
		r, err = runRestart(ctx, cfg, tr)
	default:
		err = errors.New("unknown workload")
	}
	if err != nil {
		return nil, err
	}
	r.ElapsedS = time.Since(start).Seconds()
	if err := writeSamples(cfg.outDir, cfg.workload, r.samples); err != nil {
		return nil, fmt.Errorf("write samples: %w", err)
	}
	if cfg.trace {
		for _, d := range perLayer {
			if _, ok := r.PerLayer[d.Name]; !ok {
				r.PerLayer[d.Name] = value{Value: 0, Unit: d.Unit} // layer not exercised by this workload
			}
		}
		path, err := tr.write(cfg.outDir, cfg.workload)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		r.TraceFile = path
	}
	return r, nil
}

// resultFile is the -out format: an env block and a list of runs.
type resultFile struct {
	Claim any       `json:"claim"` // this benchmark claims no gain
	Env   envBlock  `json:"env"`
	Runs  []*result `json:"runs"`
	Stamp string    `json:"written"`
}

func appendResult(path string, env envBlock, r *result) error {
	var f resultFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Env = env
	f.Runs = append(f.Runs, r)
	f.Stamp = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSamples stores a run's raw sample sets as samples-<workload>.json.
func writeSamples(dir, workload string, samples map[string][]float64) error {
	data, err := json.Marshal(samples)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "samples-"+workload+".json"), data, 0o644)
}
