package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// wire_reads: reads of the same served KB. Phase A is an open loop at
// one fixed arrival rate: 80 % /v1/marginal point lookups with
// Zipf-skewed keys, 20 % /v1/facts?relation=&threshold= scans, latency
// from the scheduled send. Phase B is a closed loop over two connections,
// for capacity. Phase C is the same mix served into memory inside the
// server process (handlers.go), which is where the end-to-end cost of a
// read is taken. A trickle writer inserts one document a second
// throughout, so epochs advance and anything keyed on the epoch must
// invalidate.
const (
	readRate     = 400.0 // arrivals per second in phase A
	readShareA   = 0.5   // of the window; phase B gets readShareB, phase C the rest
	readShareB   = 0.2
	factsShare   = 0.2
	zipfS        = 1.1
	trickleEvery = time.Second
)

// readMix draws n read targets: Zipf-skewed point lookups over the
// KB's facts and uniform relation scans.
func readMix(rng *rand.Rand, keys []readTarget, rels []string, n int) []readTarget {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	out := make([]readTarget, n)
	for i := range out {
		if rng.Float64() < factsShare {
			out[i] = readTarget{facts: true, rel: rels[rng.Intn(len(rels))]}
		} else {
			out[i] = keys[zipf.Uint64()]
		}
	}
	return out
}

// readReply is what a read must return to count as correct.
type readReply struct {
	Known bool       `json:"known"`
	Facts []wireFact `json:"facts"`
	Epoch uint64     `json:"epoch"`
}

// doRead issues one read and checks the reply: a point lookup of a fact
// the KB holds must be known, a scan must return a fact list, and the
// epoch a connection sees never goes back.
func doRead(ctx context.Context, cl *wireClient, t readTarget, lastEpoch *uint64) (int, error) {
	var out readReply
	n, err := cl.get(ctx, t.path(), &out)
	if err != nil {
		return n, err
	}
	if !t.facts && !out.Known {
		return n, fmt.Errorf("%v: fact the KB holds reported unknown", t.tuple)
	}
	if t.facts && out.Facts == nil {
		return n, fmt.Errorf("%s: scan returned no fact list", t.rel)
	}
	if out.Epoch < *lastEpoch {
		return n, fmt.Errorf("epoch went back from %d to %d", *lastEpoch, out.Epoch)
	}
	*lastEpoch = out.Epoch
	return n, nil
}

// readWindow is one open-loop read window. In a traced pass every other
// request is traced: lat then holds the untraced half, tracedLat the
// traced half, and the two halves share the window.
type readWindow struct {
	lat       samples // ms, all reads, from scheduled send
	tracedLat samples
	late      samples
	failed    int
	invalid   string
}

func runReadOpen(ctx context.Context, cl *wireClient, tr *tracer, targets []readTarget, reqBase int64) *readWindow {
	w := &readWindow{}
	interval := every(readRate)
	epochs := make([]uint64, loadConns())
	res := runOpenLoop(time.Now().Add(20*time.Millisecond), len(targets), interval, loadConns(),
		func(i, conn int, due time.Time) error {
			sent := time.Now()
			_, err := doRead(ctx, cl, targets[i], &epochs[conn])
			if tr.enabled() && i%2 == 1 {
				done := time.Now()
				req := reqBase + int64(i)
				root := tr.add("request", -1, req, due, done)
				tr.add("loadgen.wait", root, req, due, sent)
				tr.add("serve.roundtrip", root, req, sent, done)
			}
			return err
		})
	w.late = res.LateUS
	if grew, why := backlogGrew(res.Backlog, loadConns()); grew {
		w.invalid = why
	}
	for i, op := range res.Ops {
		switch {
		case !op.OK:
			w.failed++
		case tr.enabled() && i%2 == 1:
			w.tracedLat.add(ms(op.latency()))
		default:
			w.lat.add(ms(op.latency()))
		}
	}
	return w
}

// trickle inserts one document at once and then one per trickleEvery
// until stopped.
type trickle struct {
	attempted, failed int
	latMS             samples
	stop, done        chan struct{}
}

func startTrickle(ctx context.Context, base string, pool *docPool) *trickle {
	t := &trickle{stop: make(chan struct{}), done: make(chan struct{})}
	cl := newWireClient(base, 1)
	// Bodies are rendered up front: generating a corpus mid-window would
	// put the load generator's own work on the server's cores.
	var bodies [][]byte
	for i := 0; i < 64; i++ {
		bodies = append(bodies, updateBody(streamOp{Doc: pool.next()}.update()))
	}
	go func() {
		defer close(t.done)
		defer cl.close()
		tick := time.NewTicker(trickleEvery)
		defer tick.Stop()
		for i := 0; i < len(bodies); i++ {
			if i > 0 { // the first insert goes out at once
				select {
				case <-t.stop:
					return
				case <-tick.C:
				}
			}
			start := time.Now()
			_, err := cl.update(ctx, bodies[i])
			t.attempted++
			if err != nil {
				t.failed++
				continue
			}
			t.latMS.add(ms(time.Since(start)))
		}
	}()
	return t
}

func (t *trickle) finish() { close(t.stop); <-t.done }

// invalidOr returns v, or 0 when the open-loop window it was measured in
// is invalid: past capacity a percentile is a function of the window's
// length and means nothing.
func invalidOr(invalid string, v float64) float64 {
	if invalid != "" {
		return 0
	}
	return v
}

func runReads(ctx context.Context, cfg *config, tr *tracer) (*result, error) {
	r := newResult(cfg)
	srv, seed, setups, setupRef, err := setupServers(cfg, cfg.setups)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()
	pool := newDocPool(wireSpec(seed, cfg.scale), wireHoldout)
	cl := newWireClient(srv.base(), loadConns())
	defer cl.close()
	st, err := cl.stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	rels := st.Relations
	keys, err := wireKeys(ctx, cl, rels)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	tw := startTrickle(ctx, srv.base(), pool)
	durA, durB := cfg.seconds*readShareA, cfg.seconds*readShareB
	durC := cfg.seconds - durA - durB
	if cfg.trace {
		// Traced pass: a shorter open-loop window in which every other
		// request is traced, shorter phases B and C, and the rest of the
		// run for the probes.
		durA, durB, durC = cfg.seconds*0.4, cfg.seconds*0.1, cfg.seconds*0.1
	}
	targetsA := readMix(rng, keys, rels, int(durA*readRate))
	win := runReadOpen(ctx, cl, tr, targetsA, 0)
	tr.on = false          // capacity and the handler loop are end-to-end numbers; spans would only add to them
	rss := srv.peakRSSMB() // after phase A: a fixed number of reads and trickle writes

	// Phase B: closed loop, same mix.
	targetsB := readMix(rng, keys, rels, 1<<14)
	epochs := make([]uint64, loadConns())
	bDur := time.Duration(durB * float64(time.Second))
	bOps := runClosedLoop(bDur, loadConns(), func(i, conn int) error {
		_, err := doRead(ctx, cl, targetsB[i%len(targetsB)], &epochs[conn])
		return err
	})
	bFailed := 0
	for _, op := range bOps {
		if !op.OK {
			bFailed++
		}
	}

	// Phase C: the same mix served into memory inside the server.
	hr, err := srv.handlers(durC, seed)
	if err != nil {
		return nil, err
	}
	tr.on = cfg.trace
	tw.finish()

	stEnd, _ := cl.stats(ctx)
	final, err := srv.stop()
	stopped = true
	if err != nil {
		return nil, err
	}

	wireReads, wireFailed := len(targetsA)+len(bOps), win.failed+bFailed
	r.count(wireReads+tw.attempted+hr.Calls, wireFailed+tw.failed+hr.Failed)
	r.gate("reads_correct", wireFailed+hr.Failed == 0, "%d of %d wire reads and %d of %d in-memory reads wrong, refused or failed (known facts reported known, scans return lists, epochs never go back)",
		wireFailed, wireReads, hr.Failed, hr.Calls)
	r.gate("trickle_writes_acked", tw.failed == 0 && tw.attempted > 0, "%d of %d trickle inserts failed; epoch advanced %d → %d", tw.failed, tw.attempted, st.Epoch, stEnd.Epoch)
	if win.invalid != "" {
		r.note("open loop invalid, wall-clock read latencies withheld: %s", win.invalid)
	}

	tailPct := supportedTail(win.lat.n())
	r.keep("setup_s", setups.v)
	r.keep("setup_ref_s", setupRef.v)
	r.keep("ref_unit_ms", hr.RefCPUms)
	r.keep("read_ms", win.lat.v)
	r.keep("handler_marginal_cpu_ms", hr.MarginalCPUms)
	r.keep("handler_facts_cpu_ms", hr.FactsCPUms)
	r.wall("read_p50_us", invalidOr(win.invalid, win.lat.median()*1e3), win.lat.n())
	r.wall("read_tail_us", invalidOr(win.invalid, win.lat.pct(tailPct)*1e3), beyond(win.lat.n(), tailPct))
	r.wall("read_tail_pct", tailPct, 0)
	r.wall("reads_per_s", float64(len(bOps)-bFailed)/bDur.Seconds(), len(bOps))
	r.named("trickle_update_p50_ms", tw.latMS.median(), "ms", tw.latMS.n())
	r.named("loadgen.late_p99_us", win.late.pct(99), "us", win.late.n())
	r.named("open_loop", readRate, "1/s", loadConns())
	marginalCPU, factsCPU := samples{v: hr.MarginalCPUms}, samples{v: hr.FactsCPUms}
	r.named("setup_wall_s", quiet(&setups), "s", setups.n())
	r.named("op_cpu_raw_ms", quiet(&marginalCPU), "ms", marginalCPU.n())
	r.named("aux_cpu_raw_ms", quiet(&factsCPU), "ms", factsCPU.n())
	r.named("ref_unit_ms", (&samples{v: hr.RefCPUms}).median(), "ms", len(hr.RefCPUms))
	r.note("phase C served %d requests into memory in %d slices of %d lookups and %d scans; CPU per request is taken per slice, the lower quartile across slices (stats.go, quiet) converted to reference ms by the slices' reference units (ref.go)",
		hr.Calls, marginalCPU.n(), marginalSlice, factsSlice)
	if !cfg.trace {
		r.e2e(quiet(&setupRef), refMS(quiet(&marginalCPU), hr.RefCPUms), refMS(quiet(&factsCPU), hr.RefCPUms), rss)
		return r, nil
	}

	r.layer("loadgen.late_p99_us", win.late.pct(99))
	obs := win.lat.median()
	if obs > 0 {
		r.layer("trace.overhead_pct", (win.tracedLat.median()-obs)/obs*100)
	}
	r.layer("serve.subs_dropped", float64(stEnd.Serving.Dropped))
	r.layer("serve.resumes", float64(stEnd.Serving.Resumed))
	r.layer("serve.shed_429", float64(stEnd.Serving.Shed))
	r.layer("inc.materialize_ms", srv.Ready.Stages.MaterializeMS)
	r.layer("inc.variational_runs", float64(final.Autopilot.VariationalRuns))
	r.layer("inc.sampling_runs", float64(final.Autopilot.SamplingRuns))
	r.layer("serve.handler_marginal_us", hr.MarginalUS)
	r.layer("serve.handler_facts_us", hr.FactsUS)
	r.layer("serve.response_bytes_p50", hr.BytesP50)
	r.layer("kb.snapshot_marginal_ns", hr.SnapMarginal)
	r.layer("kb.snapshot_facts_us", hr.SnapFactsUS)
	r.layer("serve.wire_overhead_us", obs*1e3-hr.MarginalUS)
	if err := graphProbes(ctx, cfg, tr, r, pool.sys, pool.base, pool.loaded, seed); err != nil {
		return nil, err
	}
	if err := persistProbes(tr, r, srv.DataDir, cfg.scratch, 0); err != nil {
		return nil, err
	}

	// The budget: the traced window's median request against the untraced
	// window's p50, the round trip split by the phase C probes.
	rows, sumMS, n := budget(tr.snapshot(), "request", 45, 55)
	bt := budgetTable{Of: "read_p50_us (shown in ms)", ObservedMS: obs, SumMS: sumMS, ResidualPct: pctDiff(sumMS, obs), Requests: n,
		Rows: relabel(rows, map[string]string{"request": "(unattributed)", "serve.roundtrip": "serve round trip (client, loopback, net/http, handler)"})}
	for _, row := range bt.Rows {
		if row.Name == "serve round trip (client, loopback, net/http, handler)" && sumMS > 0 {
			// The median request is a point lookup (80 % of the mix).
			lookupMS, handlerMS := hr.SnapMarginal/1e6, hr.MarginalUS/1e3
			bt.Derived = []budgetRow{
				{Name: "kb.snapshot lookup", SelfMS: lookupMS, Share: lookupMS / sumMS},
				{Name: "serve.handler − lookup (mux, JSON)", SelfMS: handlerMS - lookupMS, Share: (handlerMS - lookupMS) / sumMS},
				{Name: "net/http + loopback + client", SelfMS: row.SelfMS - handlerMS, Share: (row.SelfMS - handlerMS) / sumMS},
			}
		}
	}
	r.Budgets = append(r.Budgets, bt)
	return r, nil
}
