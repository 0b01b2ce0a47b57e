package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/datalog"
	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/ground"
	"deepdive/internal/inc"
	"deepdive/internal/kbc"
	"deepdive/internal/learn"
	"deepdive/internal/persist"
)

// The layer probes: each calls one module's public functions directly,
// from this file, under a span, on the same inputs the workload fed the
// served stack. They run only in the traced pass.

// groundProbe replays an update stream against a bare grounder (no KB,
// no queue, no inference) and times the ground and factor layers.
type groundProbe struct {
	loadInitMS samples
	applyMS    samples
	deltaGnds  samples
	graphMS    samples
	rebuildMS  samples
	// grounder and graph are the in-place replica's final state of the
	// first stream replayed — the graph the other layer probes run on.
	grounder *ground.Grounder
	graph    *factor.Graph
}

// gndUpdate is one update of a replayed stream, in grounder terms.
type gndUpdate struct {
	rules   string // rule source to append, or ""
	inserts map[string][]deepdive.Tuple
	deletes map[string][]deepdive.Tuple
}

func (gp *groundProbe) replay(tr *tracer, src string, base map[string][]deepdive.Tuple, docs []doc, stream []gndUpdate) error {
	for _, inPlace := range []bool{true, false} {
		prog, err := datalog.Parse(src)
		if err != nil {
			return err
		}
		g, err := ground.New(prog, kbc.UDFs())
		if err != nil {
			return err
		}
		g.SetInPlaceUpdates(inPlace)
		t := time.Now()
		sp := tr.begin("ground.load_init", -1, 0)
		for rel, ts := range base {
			if err := g.LoadBase(rel, ts); err != nil {
				return err
			}
		}
		for _, d := range docs {
			for rel, ts := range d.Tuples {
				if err := g.LoadBase(rel, ts); err != nil {
					return err
				}
			}
		}
		if err := g.Ground(); err != nil {
			return err
		}
		tr.end(sp)
		if inPlace {
			gp.loadInitMS.add(ms(time.Since(t)))
		}
		g.Graph()
		cur := src
		nRules := len(prog.Rules)
		for i, u := range stream {
			gu := ground.Update{Inserts: u.inserts, Deletes: u.deletes}
			if u.rules != "" {
				cur += "\n" + u.rules
				full, err := datalog.Parse(cur)
				if err != nil {
					return err
				}
				gu.NewRules = full.Rules[nRules:]
				nRules = len(full.Rules)
			}
			before := g.NumGroundings()
			t := time.Now()
			sp := tr.begin("ground.apply_update", -1, int64(i))
			if _, err := g.ApplyUpdate(gu); err != nil {
				return err
			}
			tr.end(sp)
			applied := time.Since(t)
			t = time.Now()
			name := "factor.graph_patch"
			if !inPlace {
				name = "factor.graph_rebuild"
			}
			sp = tr.begin(name, -1, int64(i))
			g.Graph()
			tr.end(sp)
			if inPlace {
				gp.applyMS.add(ms(applied))
				d := g.NumGroundings() - before
				if d < 0 {
					d = -d
				}
				gp.deltaGnds.add(float64(d))
				gp.graphMS.add(ms(time.Since(t)))
			} else {
				gp.rebuildMS.add(ms(time.Since(t)))
			}
		}
		if inPlace && gp.grounder == nil {
			gp.grounder, gp.graph = g, g.Graph()
		}
	}
	return nil
}

// replayRules replays the six development iterations of one system.
func (gp *groundProbe) replayRules(tr *tracer, sys *corpus.System, base map[string][]deepdive.Tuple) error {
	var stream []gndUpdate
	for _, name := range kbc.IterationNames {
		stream = append(stream, gndUpdate{rules: kbc.IterationRules(sys, name)})
	}
	return gp.replay(tr, program(sys, 0), base, nil, stream)
}

func (gp *groundProbe) report(r *result) {
	r.layer("ground.load_init_ms", gp.loadInitMS.mean())
	r.layer("ground.apply_ms", gp.applyMS.mean())
	r.layer("ground.delta_groundings", gp.deltaGnds.mean())
	r.layer("factor.graph_ms", gp.graphMS.mean())
	r.layer("factor.rebuild_ms", gp.rebuildMS.mean())
	if gp.graph != nil {
		r.layer("factor.vars", float64(gp.graph.NumVars()))
		r.layer("factor.groundings", float64(gp.graph.NumGroundings()))
		r.layer("factor.fragmentation", gp.graph.Fragmentation())
	}
}

// sweepRate times Gibbs sweeps of one runtime over g, in free variables
// sampled per second.
func sweepRate(tr *tracer, name string, rt gibbs.Runtime, g *factor.Graph, seed int64, d time.Duration) float64 {
	chain := rt.NewChain(g, seed)
	chain.Run(3) // warm the chain's caches
	sp := tr.begin(name, -1, 0)
	defer tr.end(sp)
	start := time.Now()
	sweeps := 0
	for time.Since(start) < d {
		chain.Run(5)
		sweeps += 5
	}
	return float64(chain.NumFree()) * float64(sweeps) / time.Since(start).Seconds()
}

// graphProbes hands a grounded graph to the gibbs, inc and learn layers
// directly, with the options a KB would use. It needs a groundProbe that
// has replayed a stream (gp nil: ground the final program here).
func graphProbes(ctx context.Context, cfg *config, tr *tracer, r *result, sys *corpus.System, base map[string][]deepdive.Tuple, docs []doc, seed int64) error {
	prog, err := datalog.Parse(program(sys, finalProgram))
	if err != nil {
		return err
	}
	g, err := ground.New(prog, kbc.UDFs())
	if err != nil {
		return err
	}
	for rel, ts := range base {
		if err := g.LoadBase(rel, ts); err != nil {
			return err
		}
	}
	for _, d := range docs {
		for rel, ts := range d.Tuples {
			if err := g.LoadBase(rel, ts); err != nil {
				return err
			}
		}
	}
	if err := g.Ground(); err != nil {
		return err
	}
	graph := g.Graph()
	n := runtime.NumCPU()
	r.layer("gibbs.sweep_vars_per_s.w1", sweepRate(tr, "gibbs.run.w1", gibbs.Runtime{Workers: 1}, graph, seed, cfg.sweepFor))
	r.layer("gibbs.sweep_vars_per_s.wN.sharded", sweepRate(tr, "gibbs.run.wN.sharded", gibbs.Runtime{Workers: n}, graph, seed, cfg.sweepFor))
	r.layer("gibbs.sweep_vars_per_s.wN.replica", sweepRate(tr, "gibbs.run.wN.replica", gibbs.Runtime{Replicas: n}, graph, seed, cfg.sweepFor))

	// learn.TrainCtx with the KB's from-scratch options.
	frozen := make([]bool, graph.NumWeights())
	for i := range frozen {
		frozen[i] = true
	}
	warm := append([]float64(nil), graph.Weights()...)
	for _, w := range g.LearnableWeights() {
		frozen[w] = false
		warm[w] = 0
	}
	t := time.Now()
	sp := tr.begin("learn.train", -1, 0)
	_, err = learn.TrainCtx(ctx, graph, learn.Options{Epochs: 12, StepSize: 0.25, Seed: seed + 1, Warmstart: warm, Frozen: frozen})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("learn probe: %w", err)
	}
	r.layer("learn.train_ms", ms(time.Since(t)))

	// inc.NewEngineCtx with the KB's materialization options.
	sp = tr.begin("inc.materialize", -1, 0)
	eng, err := inc.NewEngineCtx(ctx, graph, inc.Options{MaterializationSamples: 1200, Burnin: 30, KeepSamples: 300,
		Lambda: 0.01, Seed: seed + 3, MeasuredOptimizer: true, CumulativeChanges: true})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("inc probe: %w", err)
	}
	r.layer("gibbs.store_bytes", float64(eng.Store().MemoryBytes()))
	if _, ok := r.PerLayer["inc.materialize_ms"]; !ok {
		r.layer("inc.materialize_ms", ms(eng.MaterializationTime()))
	}
	return nil
}

// memWriter is the in-memory http.ResponseWriter the handler probe
// serves into.
type memWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(code int)        { w.status = code }
func (w *memWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// readTarget is one read request of the wire_reads mix.
type readTarget struct {
	facts bool
	rel   string
	tuple []string
}

// scanThreshold is the probability floor of the /v1/facts scans. It is
// low so that a scan returns most of its relation: how many facts clear
// 0.5 swings with the seed, and the cost of a scan with it.
const scanThreshold = "0.1"

func (t readTarget) path() string {
	q := url.Values{"relation": {t.rel}}
	if t.facts {
		q.Set("threshold", scanThreshold)
		return "/v1/facts?" + q.Encode()
	}
	q["tuple"] = t.tuple
	return "/v1/marginal?" + q.Encode()
}

// ioCounts reads the exact I/O operation counts off an unarmed fault
// plan: it never injects anything, it only counts consultations.
type ioCounts struct {
	WALAppend uint64 `json:"wal_append"`
	WALSync   uint64 `json:"wal_sync"`
	SnapWrite uint64 `json:"snap_write"`
	SnapSync  uint64 `json:"snap_sync"`
}

func readIOCounts(p *deepdive.IOFaultPlan) ioCounts {
	return ioCounts{
		WALAppend: p.Calls(deepdive.IOWALAppend),
		WALSync:   p.Calls(deepdive.IOWALSync),
		SnapWrite: p.Calls(deepdive.IOSnapWrite),
		SnapSync:  p.Calls(deepdive.IOSnapSync),
	}
}

// dataDirSizes returns the newest snapshot's size and the total bytes of
// the write-ahead segments in a data directory.
func dataDirSizes(dir string) (snapPath string, snapBytes, walBytes int64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, 0
	}
	var snaps []string
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".ddkb":
			snaps = append(snaps, e.Name())
		case ".log":
			walBytes += info.Size()
		}
	}
	if len(snaps) == 0 {
		return "", 0, walBytes
	}
	sort.Strings(snaps)
	snapPath = filepath.Join(dir, snaps[len(snaps)-1])
	if info, err := os.Stat(snapPath); err == nil {
		snapBytes = info.Size()
	}
	return snapPath, snapBytes, walBytes
}

// persistProbes times the persist layer alone: decoding the newest
// snapshot image, and WAL append+fsync at the stream's real record size.
func persistProbes(tr *tracer, r *result, dataDir, scratch string, recordBytes int) error {
	snapPath, snapBytes, _ := dataDirSizes(dataDir)
	r.layer("persist.snapshot_bytes", float64(snapBytes))
	if snapPath != "" {
		data, err := os.ReadFile(snapPath)
		if err != nil {
			return err
		}
		if len(data) >= 8 {
			magic := binary.LittleEndian.Uint64(data[:8])
			var dec samples
			for i := 0; i < 5; i++ {
				t := time.Now()
				sp := tr.begin("persist.decode_file", -1, int64(i))
				_, err := persist.DecodeFile(magic, data)
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("persist probe: decode %s: %w", snapPath, err)
				}
				dec.add(ms(time.Since(t)))
			}
			r.layer("persist.decode_ms", dec.median())
		}
	}
	if recordBytes <= 0 {
		return nil
	}
	path := filepath.Join(scratch, "probe-wal.log")
	w, err := persist.CreateWAL(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer w.Close()
	payload := make([]byte, recordBytes)
	var app samples
	for i := 0; i < 40; i++ {
		t := time.Now()
		sp := tr.begin("persist.wal_append", -1, int64(i))
		err := w.Append(uint64(i+1), payload)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("persist probe: append: %w", err)
		}
		app.add(ms(time.Since(t)))
	}
	r.layer("persist.wal_append_ms", app.median())
	return nil
}
