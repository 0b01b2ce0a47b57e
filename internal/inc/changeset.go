// Package inc implements the paper's incremental-inference contribution
// (Section 3.2): given a factor graph materialized for the original
// distribution Pr(0) and the changes (ΔV, ΔF) produced by incremental
// grounding, compute marginals under the updated distribution Pr(∆)
// without re-running inference from scratch.
//
// Three materialization strategies are provided, mirroring the paper:
//
//   - Strawman (3.2.1): complete materialization of every possible world;
//     exponential space, feasible only below ~20 variables.
//   - Sampling (3.2.2): MCDB-style tuple-bundle samples from Pr(0) reused
//     as independent Metropolis-Hastings proposals; the acceptance test
//     touches only the changed factors.
//   - Variational (3.2.3, Algorithm 1): a sparser approximate factor
//     graph from a log-determinant relaxation with ℓ1 box constraints;
//     updates are applied directly to the approximate graph.
//
// An update first solves its dirty components on the updated graph, the
// strawman wherever it is feasible (Engine.AutoInferCtx); an optimizer
// (Sections 3.2 and 3.3) chooses between sampling and variational for the
// components past that bound. Of Algorithm 2 (Appendix B.1) what is
// implemented is the case with no active variables: the connected
// components of the free variables (ComponentGroups), each with its own
// acceptance test. The same components, grown outward from an update's
// seed variables (Engine.Scope), bound what an update re-estimates: the
// runners cover that dirty set and every other marginal stays as
// published.
package inc

import (
	"deepdive/internal/factor"
	"deepdive/internal/ground"
)

// ChangeSet describes how the distribution changed between the old and
// new factor graphs. Group indexes are stable across an update (new
// groups are appended), so ChangedOld indexes the old graph and
// ChangedNew the new one.
type ChangeSet struct {
	// ChangedOld: groups (old-graph indexes) whose energy differs under
	// the new distribution — modified groundings or changed weights.
	ChangedOld []int32
	// ChangedNew: groups (new-graph indexes) whose energy differs —
	// modified groups plus appended new groups.
	ChangedNew []int32
	// EvidenceChanged lists variables whose evidence flag/value changed.
	EvidenceChanged []factor.VarID
	// NewFeatures reports whether new tied weights were introduced.
	NewFeatures bool
}

// FromDelta converts incremental-grounding bookkeeping to a ChangeSet.
func FromDelta(d *ground.Delta) ChangeSet {
	return ChangeSet{
		ChangedOld:      d.ChangedGroupsOld(),
		ChangedNew:      d.ChangedGroupsNew(),
		EvidenceChanged: append([]factor.VarID(nil), d.EvidenceChanged...),
		NewFeatures:     d.HasNewFeatures(),
	}
}

// Merge returns the union of two change sets with duplicate group and
// variable entries removed (duplicates would double-count energy in
// EnergyOfGroups). Callers use it to accumulate the deltas of several
// grounding passes — e.g. an apply retrying after a cancelled
// predecessor whose grounding already committed — into one set to score.
func (c ChangeSet) Merge(o ChangeSet) ChangeSet {
	return ChangeSet{
		ChangedOld:      mergeInt32(c.ChangedOld, o.ChangedOld),
		ChangedNew:      mergeInt32(c.ChangedNew, o.ChangedNew),
		EvidenceChanged: mergeVarIDs(c.EvidenceChanged, o.EvidenceChanged),
		NewFeatures:     c.NewFeatures || o.NewFeatures,
	}
}

func mergeInt32(a, b []int32) []int32 {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	seen := make(map[int32]bool, len(a)+len(b))
	out := make([]int32, 0, len(a)+len(b))
	for _, xs := range [][]int32{a, b} {
		for _, x := range xs {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	return out
}

func mergeVarIDs(a, b []factor.VarID) []factor.VarID {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	seen := make(map[factor.VarID]bool, len(a)+len(b))
	out := make([]factor.VarID, 0, len(a)+len(b))
	for _, xs := range [][]factor.VarID{a, b} {
		for _, x := range xs {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	return out
}

// Empty reports whether the distribution is unchanged (the paper's A1
// analysis workload: pure re-querying).
func (c *ChangeSet) Empty() bool {
	return len(c.ChangedOld) == 0 && len(c.ChangedNew) == 0 && len(c.EvidenceChanged) == 0
}

// StructureChanged reports whether factors were added, removed, or
// modified.
func (c *ChangeSet) StructureChanged() bool {
	return len(c.ChangedOld) > 0 || len(c.ChangedNew) > 0
}
