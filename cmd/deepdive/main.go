// Command deepdive runs one of the built-in KBC systems end to end on a
// deepdive.KB: corpus generation, NLP preprocessing, grounding, weight
// learning, inference, materialization, and the incremental development
// loop over the paper's A1/FE1/FE2/I1/S1/S2 rule iterations, each
// submitted through the KB's update queue.
//
// Usage:
//
//	deepdive [-system News] [-sem ratio] [-threshold 0.9] [-seed 1] [-full]
//	         [-parallel -1 | -replicas -1 [-syncevery 8]]
//	         [-serve 127.0.0.1:8090 [-serve-for 30s] [-data-dir ./kb]]
//
// -serve starts the HTTP serving tier (KB.Serve) on the given address
// once the KB is materialized: lock-free snapshot reads, update POSTs
// through the coalescing queue, and SSE marginal-delta subscriptions.
// The development iterations are then spaced across the serving window,
// so subscribers see live deltas. The server runs until -serve-for
// elapses or SIGINT/SIGTERM.
//
// With -data-dir the served KB is durable: the materialized KB is
// checkpointed there, every update is write-ahead logged, and a rerun
// with the same directory restarts from snapshot + WAL instead of
// re-grounding and re-materializing, and submits only the iterations the
// restored program lacks.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/factor"
	"deepdive/internal/kbc"
)

func main() {
	// All work happens in run so deferred cleanups (profile flushes) fire
	// before the process exits, on error paths included.
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("deepdive", flag.ContinueOnError)
	system := fs.String("system", "Genomics", "system: Adversarial, News, Genomics, Pharma, Paleontology")
	semName := fs.String("sem", "ratio", "counting semantics: linear, logical, ratio")
	threshold := fs.Float64("threshold", 0.9, "extraction threshold")
	seed := fs.Int64("seed", 1, "random seed")
	full := fs.Bool("full", false, "use the full scaled corpus (slower)")
	parallel := fs.Int("parallel", 1, "Gibbs worker shards (<=1 sequential, -1 one per core)")
	replicas := fs.Int("replicas", 0, "replica engine workers (0 off, -1 one per core); overrides -parallel")
	syncEvery := fs.Int("syncevery", 0, "replica merge interval in sweeps (0 = default)")
	staticOpt := fs.Bool("static-optimizer", false, "lesion: static §3.3 strategy rules, per-update change sets, no store refill")
	serve := fs.String("serve", "", "serve the KB over HTTP on this address (e.g. 127.0.0.1:8090, :0 for a free port) while the rule iterations stream through the update queue")
	serveFor := fs.Duration("serve-for", 0, "shut the -serve server down after this long (0 = serve until SIGINT/SIGTERM)")
	rematLow := fs.Int("remat-low", 0, "re-materialize in the update that leaves fewer unconsumed samples than this (0 off)")
	dataDir := fs.String("data-dir", "", "durable KB directory (snapshot + WAL); rerunning with the same directory restarts from disk")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	sem, err := factor.ParseSemantics(*semName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sys, err := corpus.SystemByName(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !*full && sys.Spec.NumDocs > 120 {
		spec := sys.Spec
		spec.NumDocs = 120
		sys = corpus.Generate(spec)
	}
	fmt.Fprintf(out, "== %s (%d docs, %d relations) ==\n",
		sys.Spec.Name, len(sys.Docs), len(sys.Spec.Relations))

	opts := []deepdive.Option{
		deepdive.WithSeed(*seed),
		deepdive.WithParallelism(*parallel),
		deepdive.WithReplicas(*replicas, *syncEvery),
		deepdive.WithRematerialization(*rematLow, 0),
		deepdive.WithLesions(deepdive.Lesions{StaticOptimizer: *staticOpt}),
	}
	if *dataDir != "" {
		opts = append(opts, deepdive.WithDataDir(*dataDir))
	}
	d := demo{out: out, sys: sys, threshold: *threshold, dataDir: *dataDir}
	if err := d.build(sem, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer d.kb.Close()
	if *serve != "" {
		err = d.serve(*serve, *serveFor)
	} else {
		err = d.develop(context.Background(), 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// demo is one system's KB on its way through the development loop.
type demo struct {
	out       io.Writer
	sys       *corpus.System
	threshold float64
	dataDir   string
	kb        *deepdive.KB
}

func (d *demo) f1() float64 {
	return kbc.Evaluate(d.sys, d.kb, d.threshold).F1
}

// build takes the KB to the update-ready state: grounded, learned,
// inferred and materialized — or restored from the data directory.
func (d *demo) build(sem factor.Semantics, opts []deepdive.Option) error {
	kb, err := kbc.OpenKB(d.sys, sem, 0, opts...)
	if err != nil {
		return err
	}
	d.kb = kb
	if kb.Recovered() {
		fmt.Fprintf(d.out, "restarted from %s: epoch %d, %d vars — skipping ground/learn/infer/materialize\n",
			d.dataDir, kb.Snapshot().Epoch(), kb.Stats().Variables)
		return nil
	}
	ctx := context.Background()
	st := kb.Stats()
	fmt.Fprintf(d.out, "grounded: %d vars, %d factors, %d weights\n", st.Variables, st.Factors, st.Weights)
	learnT, err := kb.Learn(ctx)
	if err != nil {
		return err
	}
	inferT, err := kb.Infer(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(d.out, "initial learn %v, inference %v, F1 %.3f\n", learnT.Round(1e6), inferT.Round(1e6), d.f1())
	matT, err := kb.Materialize(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(d.out, "materialized both strategies in %v (%d samples)\n", matT.Round(1e6), kb.Autopilot().StoreLen)
	if d.dataDir != "" {
		if err := kb.Checkpoint(ctx); err != nil {
			return err
		}
		fmt.Fprintf(d.out, "checkpointed materialized KB to %s\n", d.dataDir)
	}
	return nil
}

// develop submits the development iterations the KB's program does not
// hold yet through the update queue, one at a time and space apart, until
// ctx is done, and reports each; then the calibration of the final KB. A
// KB restored from a run that was cut short resumes where that run
// stopped.
func (d *demo) develop(ctx context.Context, space time.Duration) error {
	var todo []string
	prog := d.kb.Program()
	for _, rule := range kbc.IterationNames {
		// A rule's label opens its line in the rendered program. A1 adds
		// no rules, so there is nothing of it to redo on a restored KB.
		label, _, labeled := strings.Cut(kbc.IterationRules(d.sys, rule), ":")
		if held := strings.Contains(prog, "\n"+label+":"); labeled && !held || !labeled && !d.kb.Recovered() {
			todo = append(todo, rule)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(d.out, "\nthe restored KB already holds the development iterations\n")
	} else {
		fmt.Fprintf(d.out, "\n%-5s %10s %12s %12s %12s %6s  %s\n",
			"rule", "F1", "ground", "learn", "infer", "acc", "strategy")
	}
	for i, rule := range todo {
		if i > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(space):
			}
		}
		if ctx.Err() != nil {
			break // interrupted: the rest waits for the next run
		}
		var res *deepdive.UpdateResult
		t, err := d.kb.Updates().SubmitCtx(ctx, deepdive.Update{RuleSource: kbc.IterationRules(d.sys, rule)})
		if err == nil {
			res, err = t.Wait(ctx)
		}
		if ctx.Err() != nil {
			break // interrupted mid-update: the queue withdraws it
		}
		if err != nil {
			return fmt.Errorf("%s: %w", rule, err)
		}
		fmt.Fprintf(d.out, "%-5s %10.3f %12v %12v %12v %6.2f  %v\n",
			rule, d.f1(), res.GroundTime.Round(1e3), res.LearnTime.Round(1e3),
			res.InferTime.Round(1e3), res.Acceptance, res.Strategy)
	}
	fmt.Fprintf(d.out, "\ncalibration (probability bucket -> empirical accuracy):\n")
	for _, b := range kbc.Calibration(d.sys, d.kb, 5) {
		if b.Count == 0 {
			continue
		}
		fmt.Fprintf(d.out, "  [%.1f,%.1f): %4d facts, %.2f true\n", b.Lo, b.Hi, b.Count, b.FracTrue)
	}
	return nil
}

// serve is the network serving tier end to end: the KB is exposed over
// HTTP via KB.Serve while the development iterations stream through the
// coalescing update queue and clients read, update, and subscribe. Runs
// until serveFor elapses or the process is interrupted; queue and
// autopilot statistics are printed at the end.
func (d *demo) serve(addr string, serveFor time.Duration) error {
	kb := d.kb
	fmt.Fprintf(d.out, "\n== serving: HTTP tier on %s, updates streaming through the queue ==\n", addr)
	// The server lives until the window elapses or the process is
	// interrupted; cancelling the context severs subscription streams.
	sigctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	sctx := sigctx
	// The iterations are spaced across the window (capped at 2s apart),
	// so subscribers see live deltas.
	space := 2 * time.Second
	if serveFor > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sigctx, serveFor)
		defer cancel()
		if s := serveFor / 20; s < space {
			space = s
		}
	}
	srv, err := kb.Serve(sctx, deepdive.ServeOptions{Addr: addr})
	if err != nil {
		return err
	}
	start := time.Now()
	rel := d.sys.Spec.Relations[0].Name
	fmt.Fprintf(d.out, "serving on http://%s\n", srv.Addr())
	fmt.Fprintf(d.out, "  curl 'http://%s/v1/health'\n", srv.Addr())
	fmt.Fprintf(d.out, "  curl 'http://%s/v1/facts?relation=Rel_%s&threshold=0.9'\n", srv.Addr(), rel)
	fmt.Fprintf(d.out, "  curl -N 'http://%s/v1/subscribe?relation=Rel_%s'\n", srv.Addr(), rel)

	// An interrupt stops the development loop; the end of the window does
	// not, so a short window still sees every iteration applied.
	devErr := d.develop(sigctx, space)
	<-sctx.Done()
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		fmt.Fprintf(d.out, "  shutdown: %v\n", err)
	}
	if devErr != nil {
		return devErr
	}
	if d.dataDir != "" {
		if err := kb.Checkpoint(context.Background()); err != nil {
			fmt.Fprintf(d.out, "  final checkpoint failed: %v\n", err)
		} else {
			fmt.Fprintf(d.out, "final checkpoint written to %s; rerun with -data-dir %s to restart from it\n",
				d.dataDir, d.dataDir)
		}
	}
	q := kb.Updates()
	if err := kb.Close(); err != nil {
		return err
	}
	snap := kb.Snapshot()
	fmt.Fprintf(d.out, "served for %v: %d updates applied in %d coalesced batches\n",
		time.Since(start).Round(time.Millisecond), q.Applied(), q.Batches())
	fmt.Fprintf(d.out, "final snapshot: epoch %d, ground version %d, graph epoch %d, %d vars\n",
		snap.Epoch(), snap.GroundVersion(), snap.GraphEpoch(), snap.Stats().Variables)
	ap := kb.Autopilot()
	fmt.Fprintf(d.out, "autopilot: %d exact / %d sampling / %d variational / %d rerun runs (%d fallbacks), store %d/%d",
		ap.ExactRuns, ap.SamplingRuns, ap.VariationalRuns, ap.RerunRuns, ap.Fallbacks, ap.StoreRemaining, ap.StoreLen)
	if ap.LowWater > 0 {
		fmt.Fprintf(d.out, ", low-water %d, %d re-materializations (%d preempted)",
			ap.LowWater, ap.Rematerializations, ap.RematPreempted)
	}
	fmt.Fprintln(d.out)
	if ap.LastProbe >= 0 {
		fmt.Fprintf(d.out, "autopilot: last measured acceptance probe %.2f, histogram %v\n", ap.LastProbe, ap.AcceptanceHist)
	}
	return nil
}
