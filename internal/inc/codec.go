package inc

import (
	"fmt"
	"slices"
	"time"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/persist"
)

// Snapshot codec for Engine. Persisted: whether the deferred step has run
// (see NewEngine) and, once it has, the sample store (bit-packed blob +
// consumption cursor) and the variational materialization; the accumulated
// post-materialization change set; and the wall-clock materialization cost
// (for stats continuity). That is every input a strategy choice reads
// besides the updated graph, so a restored engine chooses as the original
// would have: one persisted before the deferred step rebuilds the tables
// from the Pr(0) graph and the seed on its first read and draws the worlds
// the original would have drawn. NOT persisted: the options (the caller
// reopens with the same configuration, like any config) and the Pr(0)
// graph (the caller serializes it in a section of its own). Version 2
// added the deferred step's flag.
const engineCodecVersion = 2

// AppendSnapshot encodes the engine's dynamic state into b. It draws
// nothing: a deferred store is written as the flag alone.
func (e *Engine) AppendSnapshot(b *persist.Buf) {
	b.U8(engineCodecVersion)
	b.I64(int64(e.matElapsed))
	b.Bool(e.store != nil)
	if e.store != nil {
		e.store.AppendSnapshot(b)
		b.Bool(e.vm != nil)
		if e.vm != nil {
			e.vm.AppendSnapshot(b)
		}
	}
	e.accum.AppendSnapshot(b)
}

// RestoreEngine rebuilds an engine around an already-decoded Pr(0) graph
// from an image AppendSnapshot wrote, and nothing else: it refuses a store
// or an approximation sized for another graph, a change set naming a
// negative or repeated id, and trailing bytes. No sampling happens: the
// store is the persisted one, or is drawn on the first read that needs it.
//
// The accumulated change set indexes the graph the engine's last update
// ran on, which neither the image nor Pr(0) bounds — its groups, on both
// sides, may lie past Pr(0)'s — so a caller holding that graph checks it
// (ChangeSet.CheckIndexes on Accumulated). Nothing here is sized by an id
// the image names: the engine marks the set's ids on its first update.
func RestoreEngine(old *factor.Graph, opts Options, r *persist.Rd) (*Engine, error) {
	if v := r.U8("engine version"); r.Err() == nil && v != engineCodecVersion {
		return nil, fmt.Errorf("inc: unsupported engine codec version %d (this build reads version %d)", v, engineCodecVersion)
	}
	e := &Engine{opts: opts.fill(), old: old}
	e.matElapsed = time.Duration(r.I64("engine matElapsed"))
	if r.Bool("engine drawn") {
		store, err := gibbs.DecodeStoreSnapshot(r)
		if err != nil {
			return nil, err
		}
		if store.NumVars() != old.NumVars() {
			return nil, fmt.Errorf("inc: a store of %d variables for a graph of %d", store.NumVars(), old.NumVars())
		}
		e.store = store
		if r.Bool("variational present") {
			vm, err := DecodeVariationalSnapshot(r)
			if err != nil {
				return nil, err
			}
			if vm.NumVars != old.NumVars() {
				return nil, fmt.Errorf("inc: an approximation of %d variables for a graph of %d", vm.NumVars, old.NumVars())
			}
			e.vm = vm
		}
	}
	accum, err := DecodeChangeSet(r)
	if err != nil {
		return nil, err
	}
	if len(mergeIDs(accum.ChangedOld, nil)) != len(accum.ChangedOld) ||
		len(mergeIDs(accum.ChangedNew, nil)) != len(accum.ChangedNew) ||
		len(mergeIDs(accum.EvidenceChanged, nil)) != len(accum.EvidenceChanged) {
		return nil, fmt.Errorf("inc: the accumulated change set repeats an id")
	}
	e.accum = accum
	if !r.Done() {
		return nil, fmt.Errorf("inc: trailing bytes after the engine image")
	}
	return e, nil
}

// AppendSnapshot encodes the variational materialization: a pure POD
// (unary/pairwise potentials), written as parallel pools.
func (v *Variational) AppendSnapshot(b *persist.Buf) {
	b.I64(int64(v.NumVars))
	b.F64(v.Lambda)
	ei := make([]int32, len(v.Edges))
	ej := make([]int32, len(v.Edges))
	ew := make([]float64, len(v.Edges))
	for i, pf := range v.Edges {
		ei[i], ej[i], ew[i] = int32(pf.I), int32(pf.J), pf.W
	}
	b.I32s(ei)
	b.I32s(ej)
	b.F64s(ew)
	uv := make([]int32, len(v.Unaries))
	uw := make([]float64, len(v.Unaries))
	for i, uf := range v.Unaries {
		uv[i], uw[i] = int32(uf.V), uf.W
	}
	b.I32s(uv)
	b.F64s(uw)
}

// DecodeVariationalSnapshot reverses Variational.AppendSnapshot.
func DecodeVariationalSnapshot(r *persist.Rd) (*Variational, error) {
	v := &Variational{}
	v.NumVars = int(r.I64("variational numVars"))
	v.Lambda = r.F64("variational lambda")
	ei := r.I32s("variational edge i")
	ej := r.I32s("variational edge j")
	ew := r.F64s("variational edge w")
	if len(ei) != len(ej) || len(ei) != len(ew) {
		return nil, fmt.Errorf("inc: corrupt variational edge pools")
	}
	outside := func(x int32) bool { return x < 0 || int64(x) >= int64(v.NumVars) }
	if len(ei) > 0 {
		v.Edges = make([]PairFactor, len(ei))
		for i := range ei {
			if outside(ei[i]) || outside(ej[i]) {
				return nil, fmt.Errorf("inc: variational edge %d joins %d and %d, outside %d variables", i, ei[i], ej[i], v.NumVars)
			}
			v.Edges[i] = PairFactor{I: factor.VarID(ei[i]), J: factor.VarID(ej[i]), W: ew[i]}
		}
	}
	uv := r.I32s("variational unary v")
	uw := r.F64s("variational unary w")
	if len(uv) != len(uw) {
		return nil, fmt.Errorf("inc: corrupt variational unary pools")
	}
	if len(uv) > 0 {
		v.Unaries = make([]UnaryFactor, len(uv))
		for i := range uv {
			if outside(uv[i]) {
				return nil, fmt.Errorf("inc: variational unary %d on %d, outside %d variables", i, uv[i], v.NumVars)
			}
			v.Unaries[i] = UnaryFactor{V: factor.VarID(uv[i]), W: uw[i]}
		}
	}
	return v, r.Err()
}

// AppendSnapshot encodes a change set.
func (cs ChangeSet) AppendSnapshot(b *persist.Buf) {
	b.I32s(cs.ChangedOld)
	b.I32s(cs.ChangedNew)
	ev := make([]int32, len(cs.EvidenceChanged))
	for i, v := range cs.EvidenceChanged {
		ev[i] = int32(v)
	}
	b.I32s(ev)
	b.Bool(cs.NewFeatures)
}

// DecodeChangeSet reverses ChangeSet.AppendSnapshot. It refuses a
// negative group or variable id.
func DecodeChangeSet(r *persist.Rd) (ChangeSet, error) {
	var cs ChangeSet
	cs.ChangedOld = r.I32s("changeset changedOld")
	cs.ChangedNew = r.I32s("changeset changedNew")
	ev := r.I32s("changeset evidence")
	for _, ids := range [][]int32{cs.ChangedOld, cs.ChangedNew, ev} {
		if slices.ContainsFunc(ids, func(id int32) bool { return id < 0 }) {
			return cs, fmt.Errorf("inc: corrupt change set: a negative id")
		}
	}
	if len(ev) > 0 {
		cs.EvidenceChanged = make([]factor.VarID, len(ev))
		for i, v := range ev {
			cs.EvidenceChanged[i] = factor.VarID(v)
		}
	}
	cs.NewFeatures = r.Bool("changeset newFeatures")
	return cs, r.Err()
}
