package inc

import (
	"fmt"
	"slices"

	"deepdive/internal/factor"
	"deepdive/internal/persist"
)

// Snapshot codec for ChangeSet: a KB's image carries the change set a
// cancelled update left for the next one. The engine has no codec: a
// checkpoint re-materializes it, and recovery materializes it again.

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
