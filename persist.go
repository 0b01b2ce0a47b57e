package deepdive

// Durable KB: snapshot + write-ahead-log persistence over the wire
// format in internal/persist.
//
// Layout. A data directory holds at most a handful of files:
//
//	snap-<gen>.ddkb   full KB image: sectioned, checksummed, written
//	                  atomically (tmp + fsync + rename + dir fsync)
//	wal-<gen>.log     the update log paired with snap-<gen>: every
//	                  record with ticket > the snapshot's commit ticket
//	                  post-dates the image
//
// Durability begins at the first Checkpoint: it compacts the factor
// graph (folding patch overflow into a freshly rebuilt frozen base),
// encodes the full state under the writer locks, rotates to a new WAL
// generation, and writes the snapshot file off-lock. From then on every
// committed update is appended to the active segment — fsync'd before
// the commit it describes (write-ahead), so recovery never finds a
// committed-but-unlogged mutation. Recovery opens the newest snapshot
// that validates (falling back generation by generation), restores the
// grounder, databases, factor graphs, engine, and sample store exactly,
// and replays the WAL tail through the ordinary Apply path — which is
// deterministic for a fixed configuration, so the recovered marginals
// are bit-identical to a process that never crashed.
//
// Crash windows. Every kill point lands in a recoverable state:
//
//	mid WAL append        torn tail record; ReadWAL truncates it, the
//	                      update was never acknowledged
//	logged, unpublished   replay completes the update
//	mid snapshot write    the new generation's image is missing or fails
//	                      validation; recovery falls back to the previous
//	                      snapshot and replays both its segment and the
//	                      already-rotated new one
//	written, pre-cleanup  stale generations are ignored and removed by
//	                      the next checkpoint

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"deepdive/internal/datalog"
	"deepdive/internal/factor"
	"deepdive/internal/ground"
	"deepdive/internal/inc"
	"deepdive/internal/persist"
)

// kbSnapMagic is "DDKBSNP1" little-endian.
const kbSnapMagic uint64 = 0x31504e53424b4444

// kbSnapVersion is bumped on any incompatible snapshot-layout change
// (v2 appended the probe-skip counter to the autopilot section, v3 dropped
// the forced re-materialization counter from it, v4 added the exact-run
// counter); Open rejects snapshots from other versions rather than guessing.
const kbSnapVersion = 4

// Snapshot section kinds.
const (
	secMeta     = 1 // format version, generations, tickets, seeds
	secProgram  = 2 // full program source (base rules + applied updates)
	secGrounder = 3 // grounding tables, including every db relation
	secGraphCur = 4 // the served factor graph (frozen CSR pools)
	secGraphOld = 5 // the engine's Pr(0) graph, when distinct from cur
	secEngine   = 6 // sample store, variational materialization, accum
	secMarg     = 7 // published marginal vector
	secPending  = 8 // carried change set of unpublished grounded deltas
	secAuto     = 9 // autopilot counters, for stats continuity
)

// FaultHook is a crash-injection callback for the recovery tests: it is
// invoked at the named kill points below and a non-nil error aborts the
// operation at exactly that point, leaving the on-disk state a crash at
// that instant would leave.
type FaultHook func(point string) error

// Kill points passed to a FaultHook.
const (
	// FaultWALAppend fires before a committed update's record is written.
	// An error simulates a crash that loses the record: the in-memory
	// commit still proceeds, and durability latches broken until the next
	// checkpoint.
	FaultWALAppend = "wal-append"
	// FaultWALAppended fires once the record is durable, before the
	// update's inference publishes. An error simulates a crash in that
	// window; replay completes the update.
	FaultWALAppended = "wal-appended"
	// FaultSnapWrite fires after the WAL has rotated to the new
	// generation but before the snapshot file is written.
	FaultSnapWrite = "snap-write"
	// FaultSnapWritten fires once the new snapshot is durable, before
	// stale generations are removed.
	FaultSnapWritten = "snap-written"
)

// ErrDurabilitySuspended is reported by every update between a failed
// WAL append and the checkpoint that repairs the durable chain (with
// auto-repair enabled, the background loop issues that checkpoint; see
// health.go). Match with errors.Is — the reported error usually wraps
// this sentinel together with the append failure that latched it.
var ErrDurabilitySuspended = fmt.Errorf("deepdive: WAL append failed; durability suspended until the chain is repaired")

// persistInject consults the optional I/O fault injector (nil-safe).
func persistInject(inj IOInjector, op IOFaultOp) error {
	if inj == nil {
		return nil
	}
	return inj.Fault(op)
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.ddkb", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
}

// persistGens lists the generation numbers of files named
// <prefix><gen><suffix> in dir, ascending.
func persistGens(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		gen, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, gen)
	}
	slices.Sort(gens)
	return gens, nil
}

// ---------------------------------------------------------------------
// Update codec (WAL record payloads).

// encodeUpdate serializes one (possibly coalesced) update. Relation
// names are sorted so the payload is a pure function of the update's
// value, and tuple order within a relation is preserved — replay feeds
// ApplyUpdateStaged the exact sequence the original commit saw.
func encodeUpdate(u *Update) []byte {
	var b persist.Buf
	b.Str(u.RuleSource)
	appendTupleMap(&b, u.Inserts)
	appendTupleMap(&b, u.Deletes)
	return b.Bytes()
}

func appendTupleMap(b *persist.Buf, m map[string][]Tuple) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	b.Strs(names)
	for _, n := range names {
		ts := m[n]
		b.U64(uint64(len(ts)))
		for _, t := range ts {
			b.Strs(t)
		}
	}
}

func decodeUpdate(p []byte) (Update, error) {
	r := persist.NewRd(p)
	var u Update
	u.RuleSource = r.Str("update rules")
	u.Inserts = readTupleMap(r, p, "update inserts")
	u.Deletes = readTupleMap(r, p, "update deletes")
	if err := r.Err(); err != nil {
		return Update{}, err
	}
	if !r.Done() {
		return Update{}, fmt.Errorf("deepdive: trailing bytes in WAL update record")
	}
	return u, nil
}

func readTupleMap(r *persist.Rd, p []byte, what string) map[string][]Tuple {
	names := r.Strs(what + " relations")
	if len(names) == 0 {
		return nil
	}
	m := make(map[string][]Tuple, len(names))
	for _, n := range names {
		cnt := r.U64(what + " tuple count")
		if cnt > uint64(len(p)) { // corrupt count; records are CRC-guarded, be safe anyway
			r.Fail(what + " tuple count")
			return nil
		}
		ts := make([]Tuple, 0, cnt)
		for i := uint64(0); i < cnt && r.Err() == nil; i++ {
			ts = append(ts, Tuple(r.Strs(what+" tuple")))
		}
		m[n] = ts
	}
	return m
}

// ---------------------------------------------------------------------
// Checkpoint.

// Checkpoint writes a full snapshot of the KB to its data directory and
// rotates the write-ahead log, bounding recovery replay to the updates
// committed after this call. The state is compacted first: any patch
// overflow the incremental applies accumulated is folded into a freshly
// rebuilt frozen CSR base, and the measured optimizer's probe memo is
// reset (so WAL replay from the snapshot sees the same cache evolution
// the live process does after its checkpoint). Encoding happens under
// the writer locks; the file write — the slow, fsync-bound half — runs
// off-lock, so updates stream on while the image lands on disk.
//
// Checkpoint is also the repair path after a failed WAL append: it
// re-establishes a complete durable chain (in that case the file write
// stays under the locks so no update can commit against a chain that is
// still incomplete).
func (kb *KB) Checkpoint(ctx context.Context) error { return kb.checkpoint(ctx, false) }

// checkpoint is Checkpoint; auto marks the background repair loop's
// attempts, so a repair it lands is counted before Health can report the
// chain whole again.
func (kb *KB) checkpoint(ctx context.Context, auto bool) error {
	if kb.opts.DataDir == "" {
		return fmt.Errorf("deepdive: Checkpoint without a data directory (WithDataDir)")
	}
	kb.ckptMu.Lock()
	defer kb.ckptMu.Unlock()

	unlock := kb.lockExclusive()
	locked := true
	defer func() {
		if locked {
			unlock()
		}
	}()
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if !kb.inited {
		return fmt.Errorf("deepdive: Checkpoint before Init")
	}

	// Compact: rebuild the flat pools from the grounding tables so the
	// snapshot's base carries no patch overflow, and install the rebuilt
	// graph as the served one (group order and flat handles are stable
	// across the rebuild, so change-set indexes stay valid).
	kb.grounder.MarkGraphDirty()
	kb.publishLocked()
	if kb.engine != nil {
		kb.engine.ResetProbeCache()
	}

	newGen := kb.walGen + 1
	data := kb.encodeSnapshotLocked(newGen)

	// Rotate the WAL before releasing the locks: records committed from
	// now on land in the new generation's segment, whose existence must
	// be durable before its first append.
	if err := persistInject(kb.opts.IOFaults, persist.OpWALCreate); err != nil {
		return err
	}
	w, err := persist.CreateWAL(walPath(kb.opts.DataDir, newGen))
	if err != nil {
		return err
	}
	w.SetInjector(kb.opts.IOFaults)
	if err := persist.SyncDir(kb.opts.DataDir); err != nil {
		w.Close()
		return err
	}
	if kb.wal != nil {
		kb.wal.Close()
	}
	kb.wal = w
	kb.walGen = newGen

	// Off-lock file write on the normal path. When repairing a broken
	// chain the write stays under the locks: the old segment is missing a
	// committed record, so new-segment records are only replayable on top
	// of this snapshot — no commit may slip in before it is durable.
	repairing := kb.walBroken.Load()
	if !repairing {
		locked = false
		unlock()
	}
	if h := kb.opts.PersistFault; h != nil {
		if err := h(FaultSnapWrite); err != nil {
			return err
		}
	}
	if err := persist.WriteFileAtomic(snapPath(kb.opts.DataDir, newGen), data, kb.opts.IOFaults); err != nil {
		return err
	}
	if repairing && auto {
		kb.autoRepairs.Add(1)
	}
	kb.walBroken.Store(false)
	kb.noteChainRepaired()
	if h := kb.opts.PersistFault; h != nil {
		if err := h(FaultSnapWritten); err != nil {
			return err
		}
	}
	kb.removeStaleGenerations(newGen)
	return nil
}

// encodeSnapshotLocked assembles the snapshot file image. Callers hold
// both writer locks with the pipeline drained (lockExclusive).
func (kb *KB) encodeSnapshotLocked(walGen uint64) []byte {
	// One buffer for the whole image, sized from the previous one: a
	// checkpoint allocates about one file image, whatever the KB's size.
	e := persist.NewFileEnc(kbSnapMagic, kb.snapBytes+kb.snapBytes/8)

	e.Begin(secMeta)
	e.U8(kbSnapVersion)
	e.U64(walGen)
	e.U64(kb.commitTicket)
	e.U64(kb.epoch.Load())
	e.I64(kb.engineSeed)
	e.I64(kb.auto.rematSpawns)
	e.End()

	e.Begin(secProgram)
	e.Str(kb.grounder.Program().String())
	e.End()

	e.Begin(secGrounder)
	kb.grounder.AppendSnapshot(&e.Buf)
	e.End()

	e.Begin(secGraphCur)
	kb.curGraph.AppendSnapshot(&e.Buf)
	e.End()

	if kb.engine != nil {
		if old := kb.engine.OldGraph(); old != kb.curGraph {
			e.Begin(secGraphOld)
			old.AppendSnapshot(&e.Buf)
			e.End()
		}
		e.Begin(secEngine)
		kb.engine.AppendSnapshot(&e.Buf)
		e.End()
	}
	if kb.marg != nil {
		e.Begin(secMarg)
		e.F64s(kb.marg)
		e.End()
	}
	e.Begin(secPending)
	kb.pending.AppendSnapshot(&e.Buf)
	e.End()

	e.Begin(secAuto)
	e.U64(kb.auto.sampling)
	e.U64(kb.auto.variational)
	e.U64(kb.auto.rerun)
	e.U64(kb.auto.exact)
	e.U64(kb.auto.fallbacks)
	for _, h := range kb.auto.hist {
		e.U64(h)
	}
	e.F64(kb.auto.lastAccept)
	e.F64(kb.auto.lastProbe)
	e.U64(kb.auto.probeSkips)
	e.U64(kb.auto.remats)
	e.U64(kb.auto.rematLost)
	e.End()

	data := e.Finish()
	kb.snapBytes = len(data)
	return data
}

// removeStaleGenerations best-effort deletes snapshots and WAL segments
// older than the generation just written.
func (kb *KB) removeStaleGenerations(keep uint64) {
	for _, kind := range []struct{ prefix, suffix string }{
		{"snap-", ".ddkb"}, {"wal-", ".log"},
	} {
		gens, err := persistGens(kb.opts.DataDir, kind.prefix, kind.suffix)
		if err != nil {
			continue
		}
		for _, gen := range gens {
			if gen < keep {
				os.Remove(filepath.Join(kb.opts.DataDir,
					fmt.Sprintf("%s%08d%s", kind.prefix, gen, kind.suffix)))
			}
		}
	}
}

// ---------------------------------------------------------------------
// Recovery.

// Recovered reports whether this KB was restored from a snapshot in its
// data directory. A recovered KB is fully materialized and serving the
// state as of the crash's last durable point: skip Init, Learn, and
// Materialize and go straight to queries and updates.
func (kb *KB) Recovered() bool { return kb.recovered }

// recoverKB attempts restart-from-disk: the newest snapshot generation
// that fully validates is restored and its WAL tail replayed. Returns
// (nil, nil) when the directory holds no snapshot (fresh start); an
// error when snapshots exist but none is usable (surfacing corruption
// rather than silently discarding state).
func recoverKB(source string, o Options) (*KB, error) {
	gens, err := persistGens(o.DataDir, "snap-", ".ddkb")
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, nil
	}
	var lastErr error
	for i := len(gens) - 1; i >= 0; i-- {
		kb, err := restoreKB(source, o, gens[i])
		if err != nil {
			lastErr = err
			continue
		}
		return kb, nil
	}
	return nil, fmt.Errorf("deepdive: no usable snapshot in %s: %w", o.DataDir, lastErr)
}

// sectionRd wraps a required section in a decoder. The image is the
// restore's own, read for it and never written: the strings decoded from it
// are cut from the image (persist.NewRdOwned), which the restored KB keeps
// in memory for as long as it keeps one of them.
func sectionRd(secs []persist.Section, kind uint32, name string) (*persist.Rd, error) {
	p := persist.FindSection(secs, kind)
	if p == nil {
		return nil, fmt.Errorf("deepdive: snapshot missing %s section", name)
	}
	return persist.NewRdOwned(p), nil
}

// restoreKB loads one snapshot generation and replays its WAL tail.
//
// The program is re-parsed from the snapshot's own source — which
// includes every rule update applied before the checkpoint — and ground
// by a fresh Grounder, reproducing the original rule indexes, weight
// keys, and topo order; the caller's source is superseded (it must be
// the same base program). The caller's UDFs and runtime options apply
// as configuration, exactly as on first open.
func restoreKB(source string, o Options, gen uint64) (*KB, error) {
	_ = source
	data, err := os.ReadFile(snapPath(o.DataDir, gen))
	if err != nil {
		return nil, err
	}
	secs, err := persist.DecodeFile(kbSnapMagic, data)
	if err != nil {
		return nil, err
	}

	mrd, err := sectionRd(secs, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	if v := mrd.U8("snapshot version"); mrd.Err() == nil && v != kbSnapVersion {
		return nil, fmt.Errorf("deepdive: unsupported snapshot version %d", v)
	}
	walGen := mrd.U64("wal generation")
	ticket := mrd.U64("commit ticket")
	epoch := mrd.U64("kb epoch")
	engineSeed := mrd.I64("engine seed")
	rematSpawns := mrd.I64("remat spawns")
	if err := mrd.Err(); err != nil {
		return nil, err
	}

	prd, err := sectionRd(secs, secProgram, "program")
	if err != nil {
		return nil, err
	}
	src := prd.Str("program source")
	if err := prd.Err(); err != nil {
		return nil, err
	}
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	udfs := ground.UDFRegistry{}
	for name, f := range o.UDFs {
		udfs[name] = f
	}
	g, err := ground.New(prog, udfs)
	if err != nil {
		return nil, err
	}
	g.SetInPlaceUpdates(!o.Lesions.RebuildUpdates)
	g.SetParallelism(o.Parallelism)

	crd, err := sectionRd(secs, secGraphCur, "current graph")
	if err != nil {
		return nil, err
	}
	curG, err := factor.DecodeGraphSnapshot(crd)
	if err != nil {
		return nil, err
	}
	grd, err := sectionRd(secs, secGrounder, "grounder")
	if err != nil {
		return nil, err
	}
	if err := g.RestoreSnapshot(grd, curG); err != nil {
		return nil, err
	}

	kb := &KB{opts: o, grounder: g, snapBytes: len(data)}
	kb.seqCond = sync.NewCond(&kb.seqMu)
	kb.snap.Store(emptySnapshot())
	kb.curGraph = curG
	kb.inited = true
	kb.recovered = true
	kb.commitTicket = ticket
	kb.engineSeed = engineSeed
	kb.auto.rematSpawns = rematSpawns
	kb.epoch.Store(epoch)

	if eb := persist.FindSection(secs, secEngine); eb != nil {
		oldG := curG
		if ob := persist.FindSection(secs, secGraphOld); ob != nil {
			oldG, err = factor.DecodeGraphSnapshot(persist.NewRdOwned(ob))
			if err != nil {
				return nil, err
			}
		}
		eng, err := inc.RestoreEngine(oldG, kb.engineOpts(engineSeed), persist.NewRdOwned(eb))
		if err != nil {
			return nil, err
		}
		kb.engine = eng
	}
	if mb := persist.FindSection(secs, secMarg); mb != nil {
		mr := persist.NewRd(mb)
		kb.marg = mr.F64s("marginals")
		if err := mr.Err(); err != nil {
			return nil, err
		}
	}
	pendRd, err := sectionRd(secs, secPending, "pending change set")
	if err != nil {
		return nil, err
	}
	pend, err := inc.DecodeChangeSet(pendRd)
	if err != nil {
		return nil, err
	}
	kb.pending = pend

	ard, err := sectionRd(secs, secAuto, "autopilot")
	if err != nil {
		return nil, err
	}
	kb.auto.sampling = ard.U64("auto sampling")
	kb.auto.variational = ard.U64("auto variational")
	kb.auto.rerun = ard.U64("auto rerun")
	kb.auto.exact = ard.U64("auto exact")
	kb.auto.fallbacks = ard.U64("auto fallbacks")
	for i := range kb.auto.hist {
		kb.auto.hist[i] = ard.U64("auto hist")
	}
	kb.auto.lastAccept = ard.F64("auto lastAccept")
	kb.auto.lastProbe = ard.F64("auto lastProbe")
	kb.auto.probeSkips = ard.U64("auto probeSkips")
	kb.auto.remats = ard.U64("auto remats")
	kb.auto.rematLost = ard.U64("auto rematLost")
	if err := ard.Err(); err != nil {
		return nil, err
	}

	// Serve the restored state, then bring it current by replaying the
	// logged tail through the ordinary Apply path.
	kb.publishLocked()
	if err := kb.replayWAL(walGen, ticket); err != nil {
		return nil, err
	}

	// Re-arm the active segment: append to the highest existing
	// generation (the one rotated in by the last checkpoint attempt, even
	// if that checkpoint's snapshot never landed), trimming any torn
	// tail.
	wgens, err := persistGens(o.DataDir, "wal-", ".log")
	if err != nil {
		return nil, err
	}
	maxGen := walGen
	for _, wg := range wgens {
		if wg > maxGen {
			maxGen = wg
		}
	}
	w, err := persist.OpenWALAppend(walPath(o.DataDir, maxGen))
	if err != nil {
		return nil, err
	}
	w.SetInjector(o.IOFaults)
	if err := persist.SyncDir(o.DataDir); err != nil {
		w.Close()
		return nil, err
	}
	kb.wal = w
	kb.walGen = maxGen
	return kb, nil
}

// replayWAL applies the logged tail: every record with a ticket past
// the snapshot's, across every segment of the snapshot's generation and
// later, in order. Replay runs through the ordinary Apply path with
// kb.replaying set, which suppresses re-logging and progress publication;
// the store refills the live finish stages ran, replay runs too. A record whose update was logged but
// never published (crash in that window) is completed here, exactly as the
// live process would have.
func (kb *KB) replayWAL(fromGen, snapTicket uint64) error {
	gens, err := persistGens(kb.opts.DataDir, "wal-", ".log")
	if err != nil {
		return err
	}
	kb.replaying = true
	defer func() { kb.replaying = false }()
	last := snapTicket
	for _, gen := range gens {
		if gen < fromGen {
			continue
		}
		if gen > fromGen {
			// A segment past the snapshot's generation exists only because
			// a later checkpoint rotated to it and then crashed before its
			// image became usable. That checkpoint compacted the graph and
			// reset the probe memo under the locks immediately before
			// rotating, so records in this segment were committed against
			// the perturbed state; reproduce the perturbation here to keep
			// the replay trajectory bit-identical.
			kb.grounder.MarkGraphDirty()
			kb.publishLocked()
			if kb.engine != nil {
				kb.engine.ResetProbeCache()
			}
		}
		recs, err := persist.ReadWAL(walPath(kb.opts.DataDir, gen))
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Ticket <= snapTicket {
				continue
			}
			if rec.Ticket != last+1 {
				return fmt.Errorf("deepdive: WAL replay gap: ticket %d follows %d", rec.Ticket, last)
			}
			u, err := decodeUpdate(rec.Payload)
			if err != nil {
				return err
			}
			if _, err := kb.Apply(context.Background(), u); err != nil {
				return fmt.Errorf("deepdive: WAL replay of update %d: %w", rec.Ticket, err)
			}
			last = rec.Ticket
		}
	}
	kb.commitTicket = last
	return nil
}
