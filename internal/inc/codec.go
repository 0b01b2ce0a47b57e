package inc

import (
	"fmt"
	"time"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/persist"
)

// Snapshot codec for Engine. Persisted: the sample store (bit-packed
// blob + consumption cursor), the variational materialization, the
// accumulated post-materialization change set, and the wall-clock
// materialization cost (for stats continuity). That is every input a
// strategy choice reads besides the updated graph, so a restored engine
// chooses as the original would have. NOT persisted: the options (the
// caller reopens with the same configuration, like any config) and the
// Pr(0) graph (serialized separately by the caller — it may be shared
// with the current graph).
const engineCodecVersion = 1

// AppendSnapshot encodes the engine's dynamic state into b.
func (e *Engine) AppendSnapshot(b *persist.Buf) {
	b.U8(engineCodecVersion)
	b.I64(int64(e.matElapsed))
	e.store.AppendSnapshot(b)
	b.Bool(e.vm != nil)
	if e.vm != nil {
		e.vm.AppendSnapshot(b)
	}
	e.accum.AppendSnapshot(b)
}

// RestoreEngine rebuilds an engine around an already-decoded Pr(0)
// graph. No sampling happens: the store is the persisted one.
func RestoreEngine(old *factor.Graph, opts Options, r *persist.Rd) (*Engine, error) {
	if v := r.U8("engine version"); r.Err() == nil && v != engineCodecVersion {
		return nil, fmt.Errorf("inc: unsupported engine codec version %d", v)
	}
	o := opts.fill()
	e := &Engine{opts: o, old: old}
	e.matElapsed = time.Duration(r.I64("engine matElapsed"))
	store, err := gibbs.DecodeStoreSnapshot(r)
	if err != nil {
		return nil, err
	}
	e.store = store
	if r.Bool("variational present") {
		vm, err := DecodeVariationalSnapshot(r)
		if err != nil {
			return nil, err
		}
		e.vm = vm
	}
	accum, err := DecodeChangeSet(r)
	if err != nil {
		return nil, err
	}
	e.note(accum)
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
	if len(ei) > 0 {
		v.Edges = make([]PairFactor, len(ei))
		for i := range ei {
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

// DecodeChangeSet reverses ChangeSet.AppendSnapshot.
func DecodeChangeSet(r *persist.Rd) (ChangeSet, error) {
	var cs ChangeSet
	cs.ChangedOld = r.I32s("changeset changedOld")
	cs.ChangedNew = r.I32s("changeset changedNew")
	ev := r.I32s("changeset evidence")
	if len(ev) > 0 {
		cs.EvidenceChanged = make([]factor.VarID, len(ev))
		for i, v := range ev {
			cs.EvidenceChanged[i] = factor.VarID(v)
		}
	}
	cs.NewFeatures = r.Bool("changeset newFeatures")
	return cs, r.Err()
}
