package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
)

// restart_recover: the persist layer read the other way round. In
// process, on the run's durable Genomics KBs (five; one in the traced
// pass) in turn: Checkpoint, apply a
// K-update WAL tail, remember every marginal, CloseNow (the "crash"),
// OpenKB(WithDataDir), and time until the first read that returns the
// pre-crash marginal bit for bit. Cycles alternate K = restartTail and
// K = 0; the difference between the two, per record, is the replay cost.
const (
	restartTail    = 4
	restartHoldout = 0.4
	restartSlice   = 8 // K-cycles per slice
)

func restartSpec(seed int64, scale float64) corpus.Spec {
	return lightDocs(scaledSpec("Genomics", scale, seed))
}

// durableKB is one of the workload's KBs and what is needed to reopen it.
type durableKB struct {
	kb     *deepdive.KB
	pool   *docPool
	src    string
	opts   []deepdive.Option
	dir    string
	faults *deepdive.IOFaultPlan
	stream []streamOp
	next   int
}

// restartTotals is what the cycles measured.
type restartTotals struct {
	restartK      samples // ms, recovery with a WAL tail
	restartKCPU   samples // ms of CPU, same
	restart0      samples // ms, recovery without
	checkpoint    samples // ms
	checkpointCPU samples // ms of CPU
	updateMS      samples // durable in-process updates (the WAL tail)
	updateCPU     samples // ms of CPU, same
	cycles        int
	updates       int
	failures      int
	mismatched    int // facts whose marginal differed after recovery
	compared      int
	walBytes      samples   // per update, measured before each crash
	rssMB         float64   // VmHWM after the first slice
	ref           []float64 // ms of CPU, the reference unit run before every checkpoint, update and recovery
}

func (d *durableKB) open(ctx context.Context) error {
	kb, err := deepdive.OpenKB(d.src, d.opts...)
	if err != nil {
		return err
	}
	if !kb.Recovered() {
		kb.CloseNow()
		return fmt.Errorf("OpenKB on %s did not recover", d.dir)
	}
	d.kb = kb
	return nil
}

// cycle runs one checkpoint → tail → crash → recover cycle on d.
func (d *durableKB) cycle(ctx context.Context, cfg *config, tr *tracer, k int, n int, tot *restartTotals) error {
	req := int64(n)
	root := tr.begin("cycle", -1, req)
	defer tr.end(root)

	tot.ref = append(tot.ref, cfg.ref.run())
	t, c := time.Now(), cpuClock(0)
	sp := tr.begin("kb.checkpoint", root, req)
	err := d.kb.Checkpoint(ctx)
	tr.end(sp)
	if err != nil {
		tot.failures++
		return fmt.Errorf("checkpoint: %w", err)
	}
	tot.checkpoint.add(ms(time.Since(t)))
	tot.checkpointCPU.add(ms(cpuClock(0) - c))

	for i := 0; i < k; i++ {
		op := d.stream[d.next]
		d.next++
		tot.ref = append(tot.ref, cfg.ref.run())
		t, c := time.Now(), cpuClock(0)
		sp := tr.begin("kb.submit_wait", root, req)
		res, err := d.kb.Updates().Submit(op.update()).Wait(ctx)
		tr.end(sp)
		tot.updates++
		if err != nil {
			tot.failures++
			return fmt.Errorf("update: %w", err)
		}
		tr.reported(sp, req, []string{"ground.apply_update", "learn.train", "inc.infer"},
			[]time.Duration{res.GroundTime, res.LearnTime, res.InferTime})
		tot.updateMS.add(ms(time.Since(t)))
		tot.updateCPU.add(ms(cpuClock(0) - c))
	}
	if k > 0 {
		_, _, wal := dataDirSizes(d.dir)
		tot.walBytes.add(float64(wal) / float64(k))
	}

	snap := d.kb.Snapshot()
	before := allFacts(snap)
	var probeRel string
	var probeTuple deepdive.Tuple
	var probeBits uint64
	for _, rel := range snap.Relations() {
		if fs := snap.Facts(rel); len(fs) > 0 {
			probeRel, probeTuple = rel, fs[len(fs)-1].Tuple
			probeBits = before[factKey(rel, probeTuple)]
			break
		}
	}

	sp = tr.begin("kb.close_now", root, req)
	err = d.kb.CloseNow()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("CloseNow: %w", err)
	}

	tot.ref = append(tot.ref, cfg.ref.run())
	t, c = time.Now(), cpuClock(0)
	sp = tr.begin("kb.open_recover", root, req)
	err = d.open(ctx)
	tr.end(sp)
	if err != nil {
		tot.failures++
		return err
	}
	sp = tr.begin("kb.first_read", root, req)
	p, known := d.kb.Marginal(probeRel, probeTuple)
	tr.end(sp)
	restart, restartCPU := ms(time.Since(t)), ms(cpuClock(0)-c)
	first := math.Float64bits(p)
	if !known {
		first = ^uint64(0)
	}
	if k > 0 {
		tot.restartK.add(restart)
		tot.restartKCPU.add(restartCPU)
	} else {
		tot.restart0.add(restart)
	}
	tot.cycles++

	// Bit-for-bit: every fact, not just the first one read.
	after := allFacts(d.kb.Snapshot())
	tot.compared += len(before)
	if len(after) != len(before) {
		tot.mismatched += abs(len(after) - len(before))
	}
	for key, bits := range before {
		if after[key] != bits {
			tot.mismatched++
		}
	}
	if first != probeBits {
		tot.failures++
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func runRestart(ctx context.Context, cfg *config, tr *tracer) (*result, error) {
	r := newResult(cfg)
	var kbs []*durableKB
	defer func() {
		for _, d := range kbs {
			if d.kb != nil {
				d.kb.CloseNow()
			}
		}
	}()
	var setups, setupCPU, matMS samples
	var setupRef []float64
	for i := 0; i < cfg.setups; i++ {
		seed := wireSeed(cfg.seed, i)
		setupRef = append(setupRef, cfg.ref.run())
		t, c := time.Now(), cpuClock(0)
		sp := tr.begin("setup", -1, int64(i))
		d := &durableKB{dir: filepath.Join(cfg.scratch, fmt.Sprintf("data-%d", i))}
		d.pool = newDocPool(restartSpec(seed, cfg.scale), restartHoldout)
		d.src = program(d.pool.sys, finalProgram)
		extra := []deepdive.Option{deepdive.WithDataDir(d.dir)}
		if cfg.trace {
			d.faults = deepdive.NewIOFaultPlan(seed) // unarmed: counts only
			extra = append(extra, deepdive.WithIOFaults(d.faults))
		}
		d.opts = kbOptions(seed, extra...)
		kb, st, err := buildKB(ctx, d.src, d.pool.base, d.pool.loaded, true, d.opts)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		d.kb = kb
		matMS.add(st.MaterializeMS)
		setups.add(time.Since(t).Seconds())
		setupCPU.add(ms(cpuClock(0)-c) / 1e3)
		kbs = append(kbs, d)
	}
	// Streams are drawn after set-up is timed: rendering them is the load
	// generator's work, not the system's.
	perKB := int(cfg.seconds*40)/len(kbs) + 16
	for _, d := range kbs {
		d.stream = makeStream(d.pool, perKB, streamDeleteEach, 3)
	}

	var tot, untraced restartTotals
	window := time.Duration(cfg.seconds * float64(time.Second))
	n := 0
	if cfg.trace {
		window = window * 6 / 10 // the rest of a traced run is the probes
	}
	// K and K=0 cycles alternate, round-robin over the KBs, until the
	// window has elapsed and the last pair is complete. In a traced pass
	// every other pair is traced and the pairs in between, which share the
	// window with them, give the untraced numbers.
	start := time.Now()
	for ; time.Since(start) < window || n%2 == 1; n++ {
		kb := kbs[(n/2)%len(kbs)]
		k := restartTail
		if n%2 == 1 {
			k = 0
		}
		if kb.next+k > len(kb.stream) {
			break
		}
		into := &tot
		if cfg.trace {
			tr.on = (n/2)%2 == 1
			if !tr.on {
				into = &untraced
			}
		}
		if err := kb.cycle(ctx, cfg, tr, k, n, into); err != nil {
			return nil, err
		}
		if tot.rssMB == 0 && tot.restartK.n() == restartSlice {
			tot.rssMB = peakRSSMB("self") // after a fixed number of cycles
		}
	}
	elapsed := time.Since(start)
	tr.on = cfg.trace
	if tot.rssMB == 0 {
		tot.rssMB = peakRSSMB("self")
	}

	r.count(tot.cycles+tot.updates+untraced.cycles+untraced.updates, tot.failures+tot.mismatched+untraced.failures+untraced.mismatched)
	r.gate("restart_bit_identical", tot.mismatched+tot.failures+untraced.mismatched+untraced.failures == 0,
		"%d facts compared across %d recoveries: %d differ from their pre-crash marginal", tot.compared+untraced.compared, tot.cycles+untraced.cycles, tot.mismatched+untraced.mismatched)
	r.keep("setup_s", setups.v)
	r.keep("setup_cpu_s", setupCPU.v)
	r.keep("ref_unit_ms", tot.ref)
	r.keep("restart_k_ms", tot.restartK.v)
	r.keep("restart_k_cpu_ms", tot.restartKCPU.v)
	r.keep("restart_0_ms", tot.restart0.v)
	r.keep("checkpoint_ms", tot.checkpoint.v)
	r.keep("checkpoint_cpu_ms", tot.checkpointCPU.v)
	r.keep("update_ms", tot.updateMS.v)
	r.keep("update_cpu_ms", tot.updateCPU.v)
	wallSrc := &tot
	if cfg.trace {
		wallSrc = &untraced // wall-clock numbers come from the cycles run with tracing off
	}
	r.wall("restart_p50_s", wallSrc.restartK.median()/1e3, wallSrc.restartK.n())
	r.wall("checkpoint_p50_ms", wallSrc.checkpoint.median(), wallSrc.checkpoint.n())
	r.named("restart_k0_p50_s", wallSrc.restart0.median()/1e3, "s", wallSrc.restart0.n())
	r.named("cycles_per_s", float64(tot.cycles+untraced.cycles)/elapsed.Seconds(), "1/s", tot.cycles+untraced.cycles)
	r.named("durable_update_p50_ms", tot.updateMS.median(), "ms", tot.updateMS.n())
	// Slices of restartSlice K-cycles (and the restartTail times as many
	// durable updates that made their tails): the CPU per operation is
	// taken per slice, converted to reference ms by the run's reference
	// unit (ref.go), and reported at the lower quartile across slices.
	recoverCPU := sliceMeans(tot.restartKCPU.v, restartSlice)
	updateCPU := sliceMeans(tot.updateCPU.v, restartTail*restartSlice)
	ckptCPU := sliceMeans(tot.checkpointCPU.v, 2*restartSlice)
	r.named("setup_wall_s", quiet(&setups), "s", setups.n())
	r.named("setup_cpu_raw_s", quiet(&setupCPU), "s", setupCPU.n())
	r.named("op_cpu_raw_ms", quiet(&recoverCPU), "ms", tot.restartKCPU.n())
	r.named("aux_cpu_raw_ms", quiet(&updateCPU), "ms", tot.updateCPU.n())
	r.named("checkpoint_cpu_ms", quiet(&ckptCPU), "ms", tot.checkpointCPU.n())
	r.named("ref_unit_ms", (&samples{v: tot.ref}).median(), "ms", len(tot.ref))
	r.note("%d recoveries with a %d-update tail in %d slices of %d; CPU per recovery and per durable update are taken per slice in reference ms (ref.go), the end-to-end values at the lower quartile across slices (stats.go, quiet)",
		tot.restartK.n(), restartTail, recoverCPU.n(), restartSlice)
	if !cfg.trace {
		r.e2e(refMS(quiet(&setupCPU), setupRef), refMS(quiet(&recoverCPU), tot.ref), refMS(quiet(&updateCPU), tot.ref), tot.rssMB)
		return r, nil
	}

	if u := untraced.restartK.median(); u > 0 {
		r.layer("trace.overhead_pct", (tot.restartK.median()-u)/u*100)
	}
	r.layer("persist.replay_ms_per_record", (tot.restartK.median()-tot.restart0.median())/restartTail)
	r.layer("persist.wal_bytes_per_update", tot.walBytes.mean())
	r.layer("inc.materialize_ms", matMS.mean())
	var io ioCounts
	for _, d := range kbs {
		c := readIOCounts(d.faults)
		io.WALSync += c.WALSync
		io.SnapWrite += c.SnapWrite
	}
	if n := tot.updates + untraced.updates; n > 0 {
		r.layer("persist.wal_syncs_per_update", float64(io.WALSync)/float64(n))
	}
	if n := tot.checkpoint.n() + untraced.checkpoint.n() + len(kbs); n > 0 {
		r.layer("persist.snap_writes", float64(io.SnapWrite)/float64(n))
	}
	if err := persistProbes(tr, r, kbs[0].dir, cfg.scratch, int(tot.walBytes.mean())); err != nil {
		return nil, err
	}
	d := kbs[0]
	if err := graphProbes(ctx, cfg, tr, r, d.pool.sys, d.pool.base, d.pool.loaded, wireSeed(cfg.seed, 0)); err != nil {
		return nil, err
	}
	rows, sumMS, nreq := budget(tr.snapshot(), "cycle", 0, 100)
	obs := untraced.checkpoint.mean() + untraced.updateMS.mean()*restartTail/2 + (untraced.restartK.mean()+untraced.restart0.mean())/2
	r.Budgets = append(r.Budgets, budgetTable{Of: "one cycle (checkpoint + tail + recover, K=4 and K=0 averaged)", ObservedMS: obs, SumMS: sumMS,
		ResidualPct: pctDiff(sumMS, obs), Requests: nreq, Rows: relabel(rows, map[string]string{"cycle": "harness (fact comparison, between calls)"})})
	return r, nil
}
