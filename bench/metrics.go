package main

// The metric registry: the one place metric names, units and bounds are
// declared. BENCHMARK.json is checked against it by a test, the report
// prints in its order, and -compare applies its bounds.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics every workload reports with tracing off, and
// the ones a later change is held to. The benchmark contract wants every
// one of them from every workload, never zero, so two of the names are
// slots: "op" is the workload's primary operation and "aux" its second
// one; opMeaning says what each holds on each workload.
//
// The three time metrics are read off the CPU clock of the process that
// holds the KB (cpu.go) and stated in reference milliseconds (ref.go),
// not off the wall clock: in this sandbox wall-clock latency and
// throughput do not repeat within any bound the contract allows (see
// README.md, "Two stopwatches"). The wall-clock numbers the issue names
// are measured all the same, printed by name, and reported without a
// bound as the per-layer group "wall.".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "aux_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// opMeaning maps the slots onto what each workload measures.
var opMeaning = map[string]map[string]string{
	"devloop_rules": {
		"setup_s":     "CPU of one pass's set-up, five corpora → five materialized KBs (reference s)",
		"op_cpu_ms":   "CPU per rule update, Submit → published ack (Σ of a pass's 30 updates ÷ 30; reference ms)",
		"aux_cpu_ms":  "CPU of one pass's rerun oracle: the five final programs from scratch, OpenKB+Load+Init+Learn+Infer (reference ms)",
		"peak_rss_mb": "VmHWM of the benchmark process (it holds the KBs) after the first pass",
	},
	"stream_docs": {
		"setup_s":     "server CPU from exec to listening: corpus → durable materialized KB → serve (reference s, lower quartile of 5)",
		"op_cpu_ms":   "server CPU per acknowledged document update, open loop at the fixed rate (phase A; reference ms)",
		"aux_cpu_ms":  "server CPU per acknowledged document update, closed loop over 2 connections (phase B, coalescing; reference ms)",
		"peak_rss_mb": "VmHWM of the server process after phase A",
	},
	"wire_reads": {
		"setup_s":     "server CPU from exec to listening: corpus → durable materialized KB → serve (reference s, lower quartile of 5)",
		"op_cpu_ms":   "server CPU per /v1/marginal request served into memory (mux → handler → snapshot lookup → JSON), Zipf keys (reference ms)",
		"aux_cpu_ms":  "server CPU per /v1/facts?relation=&threshold= scan served into memory (reference ms)",
		"peak_rss_mb": "VmHWM of the server process after phase A",
	},
	"restart_recover": {
		"setup_s":     "CPU of corpus → durable materialized KB with its first checkpoint (reference s, lower quartile of 5)",
		"op_cpu_ms":   "CPU of one recovery with a K-update WAL tail: OpenKB(WithDataDir) → first read (reference ms)",
		"aux_cpu_ms":  "CPU per durable update of the WAL tail, Submit → Wait in process (ground, learn, infer, WAL append + fsync; reference ms)",
		"peak_rss_mb": "VmHWM of the benchmark process (it holds the KB) after the first slice of cycles",
	},
}

// perLayer are the metrics the traced pass reports. Layer = module name;
// README.md says which end-to-end metric each is expected to move on
// which workload.
// A workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{Name: "datalog.parse_ms", Unit: "ms", Better: "lower"},

	{Name: "ground.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "ground.delta_groundings", Unit: "count", Better: "lower"},
	{Name: "ground.share", Unit: "share", Better: "lower"},
	{Name: "ground.load_init_ms", Unit: "ms", Better: "lower"},

	{Name: "factor.graph_ms", Unit: "ms", Better: "lower"},
	{Name: "factor.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "factor.vars", Unit: "count", Better: "lower"},
	{Name: "factor.groundings", Unit: "count", Better: "lower"},
	{Name: "factor.fragmentation", Unit: "share", Better: "lower"},

	{Name: "gibbs.sweep_vars_per_s.w1", Unit: "1/s", Better: "higher"},
	{Name: "gibbs.sweep_vars_per_s.wN.sharded", Unit: "1/s", Better: "higher"},
	{Name: "gibbs.sweep_vars_per_s.wN.replica", Unit: "1/s", Better: "higher"},
	{Name: "gibbs.store_bytes", Unit: "B", Better: "lower"},

	{Name: "learn.train_ms", Unit: "ms", Better: "lower"},
	{Name: "learn.share", Unit: "share", Better: "lower"},

	{Name: "inc.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "inc.infer_share", Unit: "share", Better: "lower"},
	{Name: "inc.sampling_runs", Unit: "count", Better: "higher"},
	{Name: "inc.variational_runs", Unit: "count", Better: "lower"},
	{Name: "inc.rerun_runs", Unit: "count", Better: "lower"},
	{Name: "inc.fallbacks", Unit: "count", Better: "lower"},
	{Name: "inc.acceptance_mean", Unit: "share", Better: "higher"},
	{Name: "inc.probe_reused_share", Unit: "share", Better: "higher"},
	{Name: "inc.remat_landed", Unit: "count", Better: "higher"},
	{Name: "inc.remat_preempted", Unit: "count", Better: "lower"},
	{Name: "inc.rerun_total_s", Unit: "s", Better: "lower"},
	{Name: "inc.speedup_vs_rerun", Unit: "x", Better: "higher"},
	{Name: "inc.f1_gap", Unit: "f1", Better: "lower"},
	{Name: "inc.quality_drift_max", Unit: "prob", Better: "lower"},

	{Name: "kb.self_ms", Unit: "ms", Better: "lower"},
	{Name: "kb.self_share", Unit: "share", Better: "lower"},
	{Name: "kb.self_ms.x1", Unit: "ms", Better: "lower"},
	{Name: "kb.self_ms.x4", Unit: "ms", Better: "lower"},
	{Name: "kb.self_scaling_x4", Unit: "x", Better: "lower"},
	{Name: "kb.coalesced_mean", Unit: "count", Better: "higher"},
	{Name: "kb.pending_max", Unit: "count", Better: "lower"},
	{Name: "kb.snapshot_marginal_ns", Unit: "ns", Better: "lower"},
	{Name: "kb.snapshot_facts_us", Unit: "us", Better: "lower"},

	{Name: "persist.wal_append_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.wal_syncs_per_update", Unit: "count", Better: "lower"},
	{Name: "persist.snap_writes", Unit: "count", Better: "lower"},
	{Name: "persist.wal_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "persist.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "persist.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.replay_ms_per_record", Unit: "ms", Better: "lower"},

	{Name: "serve.handler_marginal_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_facts_us", Unit: "us", Better: "lower"},
	{Name: "serve.wire_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.update_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.response_bytes_p50", Unit: "B", Better: "lower"},
	{Name: "serve.sse_events", Unit: "count", Better: "higher"},
	{Name: "serve.sse_skipped_epochs", Unit: "count", Better: "lower"},
	{Name: "serve.subs_dropped", Unit: "count", Better: "lower"},
	{Name: "serve.resumes", Unit: "count", Better: "lower"},
	{Name: "serve.shed_429", Unit: "count", Better: "lower"},

	// The wall-clock numbers a user of the served KB sees, as the issue
	// names them. Measured with tracing off; no bound (see endToEnd).
	{Name: "wall.update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wall.update_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "wall.update_tail_pct", Unit: "%", Better: "higher"},
	{Name: "wall.updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wall.devloop_total_s", Unit: "s", Better: "lower"},
	{Name: "wall.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "wall.read_tail_us", Unit: "us", Better: "lower"},
	{Name: "wall.read_tail_pct", Unit: "%", Better: "higher"},
	{Name: "wall.reads_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wall.sub_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wall.sub_visible_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "wall.restart_p50_s", Unit: "s", Better: "lower"},
	{Name: "wall.checkpoint_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workloadDefs are the workloads with the one-line reason for each.
var workloadDefs = []struct{ Name, Why string }{
	{"devloop_rules", "the paper's experiment: six rule iterations on five systems; ground, learn, inc and gibbs do the work, serve and persist none (op = rule update, aux = from-scratch rerun)"},
	{"stream_docs", "small document deltas over the wire into a durable KB: queue, O(delta) ground+patch, learn, infer, WAL fsync and publish set the cost (op = update at a fixed rate, aux = closed-loop update)"},
	{"wire_reads", "reads of a served KB while a trickle writer advances epochs: mux, handler, JSON encode and snapshot lookup do the work, the update path idles (op = point lookup, aux = facts scan)"},
	{"restart_recover", "persist read the other way round: checkpoint, WAL tail, kill, recover bit-for-bit; work moved from append or checkpoint into recovery shows here (op = recovery, aux = durable update)"},
}

func isWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}
