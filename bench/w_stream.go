package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"deepdive"
)

// stream_docs: small document deltas streamed over the wire into a
// durable, re-materializing, scaled-News KB. Phase A is an open loop:
// POST /v1/update?wait=1 at one fixed arrival rate over at most two
// connections, three inserts to one delete of an earlier insert, latency
// from the scheduled send; one SSE subscriber and a 10/s background
// reader run alongside. Phase B is a closed loop over the same two
// connections, for capacity; there the queue coalesces. The server's CPU
// clock is sampled through both phases (cpuMeter), which is where the
// end-to-end cost of an update is taken.
const (
	streamRate       = 5.0 // arrivals per second in phase A
	streamDeleteEach = 4   // every 4th operation deletes
	streamDeleteLag  = 8   // …a document inserted at least 8 operations earlier
	streamShareA     = 0.72
	streamSliceA     = 10 // acknowledged updates per CPU slice, phase A
	streamSliceB     = 16 // …and phase B
	bgReadEvery      = 100 * time.Millisecond
)

func wireSeed(seed int64, i int) int64 { return seed*1_000_003 + 7*int64(i) }

// streamState is what the open and closed loops share.
type streamState struct {
	cl      *wireClient
	tr      *tracer
	ops     []streamOp
	bodies  [][]byte
	acked   []chan struct{} // closed when op i has been answered
	results []wireUpdateResult
	errs    []error
	reqBase int64
	meter   *cpuMeter // counts acknowledged updates against the server's CPU clock
}

func newStreamState(cl *wireClient, tr *tracer, ops []streamOp, reqBase int64, meter *cpuMeter) *streamState {
	s := &streamState{cl: cl, tr: tr, ops: ops, reqBase: reqBase, meter: meter,
		bodies: make([][]byte, len(ops)), acked: make([]chan struct{}, len(ops)),
		results: make([]wireUpdateResult, len(ops)), errs: make([]error, len(ops))}
	for i, op := range ops {
		s.bodies[i] = updateBody(op.update())
		s.acked[i] = make(chan struct{})
	}
	return s
}

// send posts operation i; due is when it was scheduled (the latency
// origin). A delete first waits for the insert it undoes to be answered.
func (s *streamState) send(ctx context.Context, i int, due time.Time) error {
	defer close(s.acked[i])
	if after := s.ops[i].After; after >= 0 {
		<-s.acked[after]
	}
	sent := time.Now()
	res, err := s.cl.update(ctx, s.bodies[i])
	done := time.Now()
	s.results[i], s.errs[i] = res, err
	if err == nil {
		s.meter.done.Add(1)
	}
	if s.tr.enabled() && i%2 == 1 { // a traced pass traces every other request
		req := s.reqBase + int64(i)
		root := s.tr.add("request", -1, req, due, done)
		s.tr.add("loadgen.wait", root, req, due, sent)
		rt := s.tr.add("serve.roundtrip", root, req, sent, done)
		if err == nil {
			s.tr.reported(rt, req, []string{"ground.apply_update", "learn.train", "inc.infer"},
				[]time.Duration{msDur(res.GroundMS), msDur(res.LearnMS), msDur(res.InferMS)})
		}
	}
	return err
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// streamWindow is what one open-loop window measured. In a traced pass
// every other request is traced: lat and visible then hold the untraced
// half, tracedLat the traced half, and the two halves share the window.
type streamWindow struct {
	lat       samples // ms from scheduled send
	tracedLat samples
	visible   samples // ms from scheduled send to SSE delta
	stageMS   samples // ground+learn+infer per acked update
	coalesce  samples
	late      samples
	failed    int
	untyped   int
	unseen    int
	invalid   string
	state     *streamState
	cpu       *cpuMeter
}

// runStreamOpen offers ops at streamRate and waits for the subscriber to
// have seen the last acknowledged epoch.
func runStreamOpen(ctx context.Context, cl *wireClient, tr *tracer, sub *subscriber, ops []streamOp, reqBase int64, pid int) *streamWindow {
	w := &streamWindow{cpu: startCPUMeter(pid, 50*time.Millisecond)}
	w.state = newStreamState(cl, tr, ops, reqBase, w.cpu)
	interval := every(streamRate)
	res := runOpenLoop(time.Now().Add(20*time.Millisecond), len(ops), interval, loadConns(),
		func(i, conn int, due time.Time) error { return w.state.send(ctx, i, due) })
	w.cpu.finish()
	w.late = res.LateUS
	if grew, why := backlogGrew(res.Backlog, loadConns()); grew {
		w.invalid = why
	}
	var lastEpoch uint64
	for i, op := range res.Ops {
		if !op.OK {
			w.failed++
			var we *wireError
			if errors.As(w.state.errs[i], &we) && !we.typed() {
				w.untyped++
			}
			continue
		}
		r := w.state.results[i]
		if r.Epoch > lastEpoch {
			lastEpoch = r.Epoch
		}
		if tr.enabled() && i%2 == 1 {
			w.tracedLat.add(ms(op.latency()))
			continue
		}
		w.lat.add(ms(op.latency()))
		w.stageMS.add(r.GroundMS + r.LearnMS + r.InferMS)
		w.coalesce.add(float64(r.Coalesced))
	}
	if lastEpoch > 0 {
		sub.waitFor(lastEpoch, 5*time.Second)
	}
	for i, op := range res.Ops {
		if !op.OK || (tr.enabled() && i%2 == 1) {
			continue
		}
		at, ok := sub.visibleAt(w.state.results[i].Epoch)
		if !ok {
			w.unseen++
			continue
		}
		w.visible.add(ms(at.Sub(op.Due)))
	}
	return w
}

// background runs the 10/s reader and the queue-depth poller until
// stopped; both share one connection.
type background struct {
	readUS     samples
	pendingMax int
	failed     int
	attempted  int
	stop       chan struct{}
	done       chan struct{}
}

func startBackground(ctx context.Context, base string, keys []readTarget, seed int64) *background {
	b := &background{stop: make(chan struct{}), done: make(chan struct{})}
	cl := newWireClient(base, 1)
	rng := rand.New(rand.NewSource(seed))
	go func() {
		defer close(b.done)
		defer cl.close()
		tick := time.NewTicker(bgReadEvery)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-b.stop:
				return
			case <-tick.C:
			}
			var out struct {
				Known bool `json:"known"`
			}
			t := time.Now()
			_, err := cl.get(ctx, keys[rng.Intn(len(keys))].path(), &out)
			b.attempted++
			if err != nil || !out.Known {
				b.failed++
			} else {
				b.readUS.add(float64(time.Since(t)) / 1e3)
			}
			if n%2 == 0 {
				if st, err := cl.stats(ctx); err == nil && st.Queue.Pending > b.pendingMax {
					b.pendingMax = st.Queue.Pending
				}
			}
		}
	}()
	return b
}

func (b *background) finish() { close(b.stop); <-b.done }

// wireKeys lists the KB's current facts as point-read targets.
func wireKeys(ctx context.Context, cl *wireClient, rels []string) ([]readTarget, error) {
	var keys []readTarget
	for _, rel := range rels {
		fs, err := cl.facts(ctx, rel)
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			if f.Known {
				keys = append(keys, readTarget{rel: rel, tuple: f.Tuple})
			}
		}
	}
	if len(keys) == 0 {
		return nil, errors.New("served KB has no facts with a marginal")
	}
	return keys, nil
}

// setupServers spawns the server n times (each on its own sub-seeded
// corpus) and keeps the last. It returns every spawn's set-up time on the
// wall clock, and on the child's CPU clock in reference ms (ref.go).
func setupServers(cfg *config, n int) (keep *serverProc, seed int64, wallS, refS samples, err error) {
	for i := 0; i < n; i++ {
		seed = wireSeed(cfg.seed, i)
		p, err := startServer(cfg, seed, filepath.Join(cfg.scratch, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, 0, wallS, refS, err
		}
		wallS.add(p.SetupS)
		refS.add(refMS(p.Ready.SetupCPUms, p.Ready.SetupRefMS) / 1e3)
		if i < n-1 {
			if _, err := p.stop(); err != nil {
				return nil, 0, wallS, refS, err
			}
			continue
		}
		keep = p
	}
	return keep, seed, wallS, refS, nil
}

func runStream(ctx context.Context, cfg *config, tr *tracer) (*result, error) {
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
	sub, err := startSubscriber(ctx, srv.base())
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	bg := startBackground(ctx, srv.base(), keys, seed)
	pid := srv.cmd.Process.Pid

	durA := cfg.seconds * streamShareA
	durB := cfg.seconds - durA
	if cfg.trace {
		// Traced pass: a shorter open-loop window in which every other
		// request is traced, a short phase B, and the rest of the run for
		// the layer probes.
		durA, durB = cfg.seconds*0.5, cfg.seconds*0.1
	}
	nA := max(int(durA*streamRate), 4) // the smoke path's window is shorter than an arrival
	opsA := makeStream(pool, nA, streamDeleteEach, streamDeleteLag)
	if _, err := srv.ref(); err != nil { // phase A's reference samples start here
		return nil, err
	}
	win := runStreamOpen(ctx, cl, tr, sub, opsA, 0, pid)
	refA, err := srv.ref()
	if err != nil {
		return nil, err
	}
	tr.on = false          // capacity is an end-to-end number; spans would only add to it
	rss := srv.peakRSSMB() // after phase A: a fixed number of updates

	// Phase B: closed loop, inserts only.
	bDur := time.Duration(durB * float64(time.Second))
	bMeter := startCPUMeter(pid, 50*time.Millisecond)
	bState := newStreamState(cl, tr, makeStream(pool, int(durB*40)+8, 0, 0), 2<<20, bMeter)
	bOps := runClosedLoop(bDur, loadConns(), func(i, conn int) error {
		if i >= len(bState.ops) {
			return errDone
		}
		return bState.send(ctx, i, time.Now())
	})
	bMeter.finish()
	refB, err := srv.ref()
	if err != nil {
		return nil, err
	}
	tr.on = cfg.trace
	bg.finish()

	// Correctness: every acknowledged document's facts are in the final
	// fact tables, every acknowledged delete's are gone.
	present, err := cl.allWireFacts(ctx, rels)
	if err != nil {
		return nil, fmt.Errorf("final facts: %w", err)
	}
	missing, lingering, ackedDocs := 0, 0, 0
	check := func(s *streamState) {
		deleted := map[int]bool{}
		for i, op := range s.ops {
			if op.Delete && s.errs[i] == nil && isAnswered(s.acked[i]) {
				deleted[op.After] = true
			}
		}
		for i, op := range s.ops {
			if !isAnswered(s.acked[i]) || s.errs[i] != nil {
				continue
			}
			if !op.Delete {
				ackedDocs++
			}
			for _, k := range docFacts(pool.sys, op.Doc) {
				switch {
				case !op.Delete && !deleted[i] && !present[k]:
					missing++
				case op.Delete && present[k]:
					lingering++
				}
			}
		}
	}
	check(win.state)
	check(bState)

	stEnd, _ := cl.stats(ctx)
	final, err := srv.stop()
	stopped = true
	if err != nil {
		return nil, err
	}
	<-sub.done

	// Totals.
	bFailed := 0
	var bLat samples
	for _, op := range bOps {
		if !op.OK {
			bFailed++
			continue
		}
		bLat.add(ms(op.latency()))
	}
	attempted := len(opsA) + len(bOps) + bg.attempted
	failed := win.failed + bFailed + bg.failed + missing + lingering + win.unseen
	r.count(attempted, failed)
	r.gate("acked_facts_present", missing == 0 && lingering == 0, "%d acked documents checked against the final /v1/facts: %d facts missing, %d deleted facts still present", ackedDocs, missing, lingering)
	r.gate("sse_epochs_monotone", sub.nonMono == 0 && sub.err == nil, "%d delta events, %d with a non-advancing epoch, stream error: %v", sub.events, sub.nonMono, sub.err)
	r.gate("sse_saw_every_ack", win.unseen == 0, "%d acked updates whose epoch never reached the subscriber", win.unseen)
	r.gate("zero_untyped_refusals", win.untyped == 0, "%d refusals without an error code", win.untyped)
	if win.invalid != "" {
		r.note("open loop invalid, wall-clock update latencies withheld: %s", win.invalid)
	}

	tailPct := supportedTail(win.lat.n())
	r.keep("setup_s", setups.v)
	r.keep("setup_ref_s", setupRef.v)
	r.keep("ref_unit_ms", append(append([]float64(nil), refA...), refB...))
	r.keep("update_ms", win.lat.v)
	r.keep("update_stage_ms", win.stageMS.v)
	r.keep("visible_ms", win.visible.v)
	r.keep("closed_update_ms", bLat.v)
	r.wall("update_p50_ms", invalidOr(win.invalid, win.lat.median()), win.lat.n())
	r.wall("update_tail_ms", invalidOr(win.invalid, win.lat.pct(tailPct)), beyond(win.lat.n(), tailPct))
	r.wall("update_tail_pct", tailPct, 0)
	r.wall("updates_per_s", float64(bLat.n())/bDur.Seconds(), bLat.n())
	r.wall("sub_visible_p50_ms", invalidOr(win.invalid, win.visible.median()), win.visible.n())
	r.wall("sub_visible_tail_ms", invalidOr(win.invalid, win.visible.pct(tailPct)), beyond(win.visible.n(), tailPct))
	r.wall("read_p50_us", bg.readUS.median(), bg.readUS.n())
	r.named("loadgen.late_p99_us", win.late.pct(99), "us", win.late.n())
	r.named("open_loop", streamRate, "1/s", loadConns())
	cpuA, cpuB := win.cpu.perOp(streamSliceA), bMeter.perOp(streamSliceB)
	r.keep("update_cpu_ms", cpuA.v)
	r.keep("closed_update_cpu_ms", cpuB.v)
	r.named("setup_wall_s", quiet(&setups), "s", setups.n())
	r.named("op_cpu_raw_ms", quiet(&cpuA), "ms", cpuA.n())
	r.named("aux_cpu_raw_ms", quiet(&cpuB), "ms", cpuB.n())
	r.named("ref_unit_ms", (&samples{v: refA}).median(), "ms", len(refA))
	r.note("server CPU per acknowledged update is taken per slice of %d (phase A, %d slices) and %d (phase B, %d slices) updates, the lower quartile across slices (stats.go, quiet) converted to reference ms by the phase's reference units (ref.go)",
		streamSliceA, cpuA.n(), streamSliceB, cpuB.n())
	if !cfg.trace {
		r.e2e(quiet(&setupRef), refMS(quiet(&cpuA), refA), refMS(quiet(&cpuB), refB), rss)
		return r, nil
	}

	// Per-layer numbers: what the wire run itself shows…
	r.layer("loadgen.late_p99_us", win.late.pct(99))
	if u := win.lat.median(); u > 0 {
		r.layer("trace.overhead_pct", (win.tracedLat.median()-u)/u*100)
	}
	r.layer("kb.coalesced_mean", win.coalesce.mean())
	r.layer("kb.pending_max", float64(bg.pendingMax))
	r.layer("serve.sse_events", float64(sub.events))
	r.layer("serve.sse_skipped_epochs", float64(sub.skipped))
	r.layer("serve.subs_dropped", float64(stEnd.Serving.Dropped))
	r.layer("serve.resumes", float64(stEnd.Serving.Resumed))
	r.layer("serve.shed_429", float64(stEnd.Serving.Shed))
	r.layer("inc.sampling_runs", float64(final.Autopilot.SamplingRuns))
	r.layer("inc.variational_runs", float64(final.Autopilot.VariationalRuns))
	r.layer("inc.rerun_runs", float64(final.Autopilot.RerunRuns))
	r.layer("inc.fallbacks", float64(final.Autopilot.Fallbacks))
	r.layer("inc.remat_landed", float64(final.Autopilot.Rematerializations))
	r.layer("inc.remat_preempted", float64(final.Autopilot.RematPreempted))
	r.layer("inc.materialize_ms", srv.Ready.Stages.MaterializeMS)
	if final.Applied > 0 {
		r.layer("persist.wal_syncs_per_update", float64(final.IO.WALSync)/float64(final.Applied))
		r.layer("persist.wal_bytes_per_update", float64(final.WALBytes)/float64(final.Applied))
	}
	r.layer("persist.snap_writes", float64(final.IO.SnapWrite))

	// …and the same stream replayed against each layer on its own.
	probeOps := win.state.ops
	if len(probeOps) > 40 {
		probeOps = probeOps[:40]
	}
	ip, err := replayOn(ctx, tr, pool, probeOps, wireKBOptions(seed, filepath.Join(cfg.scratch, "probe-data"), nil), true)
	if err != nil {
		return nil, fmt.Errorf("in-process probe: %w", err)
	}
	r.layer("kb.self_ms", ip.selfMS.mean())
	r.layer("kb.self_share", ip.selfMS.sum()/ip.wallMS.sum())
	r.layer("ground.share", ip.groundMS/ip.wallMS.sum())
	r.layer("learn.share", ip.learnMS/ip.wallMS.sum())
	r.layer("inc.infer_share", ip.inferMS/ip.wallMS.sum())
	r.layer("inc.acceptance_mean", ip.accept.mean())
	r.layer("inc.probe_reused_share", float64(ip.reused)/float64(ip.wallMS.n()))
	r.layer("serve.update_overhead_ms", win.lat.median()-ip.wallMS.median())
	if err := scalingProbe(ctx, tr, r, probeOps, seed, cfg); err != nil {
		return nil, fmt.Errorf("scaling probe: %w", err)
	}
	var gp groundProbe
	var gstream []gndUpdate
	for _, op := range probeOps {
		u := op.update()
		gstream = append(gstream, gndUpdate{inserts: u.Inserts, deletes: u.Deletes})
	}
	if err := gp.replay(tr, program(pool.sys, finalProgram), pool.base, pool.loaded, gstream); err != nil {
		return nil, fmt.Errorf("ground probe: %w", err)
	}
	gp.report(r)
	if err := graphProbes(ctx, cfg, tr, r, pool.sys, pool.base, pool.loaded, seed); err != nil {
		return nil, err
	}
	recBytes := 0
	if final.Applied > 0 {
		recBytes = int(final.WALBytes / int64(final.Applied))
	}
	if err := persistProbes(tr, r, srv.DataDir, cfg.scratch, recBytes); err != nil {
		return nil, err
	}

	// The budget: the traced window's median request, by layer, against
	// the untraced window's p50.
	rows, sumMS, n := budget(tr.snapshot(), "request", 45, 55)
	obs := win.lat.median()
	bt := budgetTable{Of: "update_p50_ms", ObservedMS: obs, SumMS: sumMS, ResidualPct: pctDiff(sumMS, obs), Requests: n,
		Rows: relabel(rows, map[string]string{
			"request":         "(unattributed)",
			"serve.roundtrip": "serve+kb.self+persist (round trip − stages)",
		})}
	for _, row := range bt.Rows {
		if row.Name == "serve+kb.self+persist (round trip − stages)" && sumMS > 0 {
			walMS := r.PerLayer["persist.wal_append_ms"].Value * r.PerLayer["persist.wal_syncs_per_update"].Value
			kbOther := ip.selfMS.median() - walMS
			bt.Derived = []budgetRow{
				{Name: "persist.wal (append+fsync)", SelfMS: walMS, Share: walMS / sumMS},
				{Name: "kb.self − wal (queue, skeleton, publish)", SelfMS: kbOther, Share: kbOther / sumMS},
				{Name: "serve (net/http, JSON, loopback)", SelfMS: row.SelfMS - ip.selfMS.median(), Share: (row.SelfMS - ip.selfMS.median()) / sumMS},
			}
		}
	}
	r.Budgets = append(r.Budgets, bt)
	return r, nil
}

func isAnswered(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func relabel(rows []budgetRow, names map[string]string) []budgetRow {
	for i := range rows {
		if n, ok := names[rows[i].Name]; ok {
			rows[i].Name = n
		}
	}
	return rows
}

// inprocResult is the same stream applied in process: Submit → Wait on a
// KB configured like the served one, no HTTP in between.
type inprocResult struct {
	wallMS   samples
	selfMS   samples
	groundMS float64
	learnMS  float64
	inferMS  float64
	accept   samples
	reused   int
	vars     int
}

// replayOn builds a KB over the pool's corpus with opts and applies ops
// one at a time, in process.
func replayOn(ctx context.Context, tr *tracer, p *docPool, ops []streamOp, opts []deepdive.Option, durable bool) (*inprocResult, error) {
	kb, _, err := buildKB(ctx, program(p.sys, finalProgram), p.base, p.loaded, durable, opts)
	if err != nil {
		return nil, err
	}
	defer kb.CloseNow()
	out := &inprocResult{vars: kb.Stats().Variables}
	var seq atomic.Int64
	for _, op := range ops {
		req := 3<<20 + seq.Add(1)
		t := time.Now()
		root := tr.begin("kb.submit_wait", -1, req)
		res, err := kb.Updates().Submit(op.update()).Wait(ctx)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		tr.reported(root, req, []string{"ground.apply_update", "learn.train", "inc.infer"},
			[]time.Duration{res.GroundTime, res.LearnTime, res.InferTime})
		wall := ms(time.Since(t))
		out.wallMS.add(wall)
		out.selfMS.add(wall - ms(res.GroundTime) - ms(res.LearnTime) - ms(res.InferTime))
		out.groundMS += ms(res.GroundTime)
		out.learnMS += ms(res.LearnTime)
		out.inferMS += ms(res.InferTime)
		out.accept.add(res.Acceptance)
		if res.ProbeReused {
			out.reused++
		}
	}
	return out, nil
}

// scalingProbe applies the same Δ to a KB at 1× and at ~4× the size,
// both non-durable so the constant WAL cost does not dilute the ratio,
// and states the publish-scaling verdict: kb.self at 4× ÷ kb.self at 1×.
func scalingProbe(ctx context.Context, tr *tracer, r *result, ops []streamOp, seed int64, cfg *config) error {
	if len(ops) > 20 {
		ops = ops[:20]
	}
	small := newDocPool(wireSpec(seed, cfg.scale), wireHoldout)
	x1, err := replayOn(ctx, tr, small, ops, kbOptions(seed), false)
	if err != nil {
		return err
	}
	big := newDocPool(wireSpec(seed, cfg.scale*scalingFactor), wireHoldout)
	x4, err := replayOn(ctx, tr, big, ops, kbOptions(seed), false)
	if err != nil {
		return err
	}
	r.layer("kb.self_ms.x1", x1.selfMS.median())
	r.layer("kb.self_ms.x4", x4.selfMS.median())
	ratio := 0.0
	if x1.selfMS.median() > 0 {
		ratio = x4.selfMS.median() / x1.selfMS.median()
	}
	r.layer("kb.self_scaling_x4", ratio)
	r.note("publish-scaling verdict: kb.self %.3f ms at %d vars, %.3f ms at %d vars (%.2f× the size) → ratio %.2f (≈ size ratio confirms O(|KB|) publish, ≈ 1 clears it)",
		x1.selfMS.median(), x1.vars, x4.selfMS.median(), x4.vars, float64(x4.vars)/float64(x1.vars), ratio)
	return nil
}

// scalingFactor is the corpus scale multiplier whose KB has about four
// times the variables of the 1× KB (the floors of scaledSpec make small
// scales sub-linear).
const scalingFactor = 8
