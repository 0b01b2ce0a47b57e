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
//     touches only the changed factors. One runner implements it
//     (SamplingInferCtx).
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
// acceptance test. With one block — the trivial decomposition — the
// runner's test is the global one of §3.2.2, so the two are one loop; the
// NoDecomposition lesion hands it that block. The same components, grown
// outward from an update's seed variables (Engine.Scope), bound what an
// update re-estimates: the runners cover that dirty set and every other
// marginal stays as published.
package inc

import (
	"fmt"
	"slices"

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
// EnergyOfGroups), each id where it first occurs. Callers use it to
// accumulate the deltas of several grounding passes — e.g. an apply
// retrying after a cancelled predecessor whose grounding already
// committed — into one set to score.
func (c ChangeSet) Merge(o ChangeSet) ChangeSet {
	return ChangeSet{
		ChangedOld:      mergeIDs(c.ChangedOld, o.ChangedOld),
		ChangedNew:      mergeIDs(c.ChangedNew, o.ChangedNew),
		EvidenceChanged: mergeIDs(c.EvidenceChanged, o.EvidenceChanged),
		NewFeatures:     c.NewFeatures || o.NewFeatures,
	}
}

// mergeIDs returns a followed by b, each id once, where it first occurs.
// It marks the ids in a bitset up to the largest while that costs at most a
// few words per id; ids sparser than that — a small update's groups in a
// large graph, or whatever an image names — are deduplicated by sorting
// their positions instead, so the work stays proportional to the ids, not
// to the graph.
func mergeIDs[T ~int32](a, b []T) []T {
	n := len(a) + len(b)
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	lo, hi := T(0), T(0)
	for _, xs := range [2][]T{a, b} {
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	if lo >= 0 && int(hi)>>6 < 4*n+64 {
		seen := make(idSet, int(hi)>>6+1)
		for _, xs := range [2][]T{a, b} {
			for _, x := range xs {
				if seen.add(int32(x)) {
					out = append(out, x)
				}
			}
		}
		return out
	}
	out = append(append(out, a...), b...)
	keys := make([]int64, n) // id<<32 | position: sorted, an id's first position leads
	for i, x := range out {
		keys[i] = int64(x)<<32 | int64(i)
	}
	slices.Sort(keys)
	first := make([]bool, n)
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			first[uint32(k)] = true
		}
	}
	kept := out[:0]
	for i, x := range out {
		if first[i] {
			kept = append(kept, x)
		}
	}
	return kept
}

// idSet marks non-negative dense ids: a bitset that grows to the largest
// id marked.
type idSet []uint64

// add marks id and reports whether it was unmarked.
func (s *idSet) add(id int32) bool {
	w := int(id >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	bit := uint64(1) << (id & 63)
	if (*s)[w]&bit != 0 {
		return false
	}
	(*s)[w] |= bit
	return true
}

// union appends to dst the ids of src it has not marked, marking them.
func union[T ~int32](s *idSet, dst, src []T) []T {
	for _, x := range src {
		if s.add(int32(x)) {
			dst = append(dst, x)
		}
	}
	return dst
}

// CheckIndexes refuses a change set naming a group at or past g's groups or
// a variable at or past its variables. Groups and variables are
// append-only across updates, so a change set accumulated over updates
// that ended in g — whichever graph each id indexed when it was noted —
// names none: a restore checks a decoded one against the graph it
// restores.
func (c ChangeSet) CheckIndexes(g *factor.Graph) error {
	nG, nV := int32(g.NumGroups()), int32(g.NumVars())
	for _, ids := range [2][]int32{c.ChangedOld, c.ChangedNew} {
		if i := slices.IndexFunc(ids, func(gi int32) bool { return gi >= nG }); i >= 0 {
			return fmt.Errorf("inc: a change set names group %d of a graph of %d", ids[i], nG)
		}
	}
	if i := slices.IndexFunc(c.EvidenceChanged, func(v factor.VarID) bool { return int32(v) >= nV }); i >= 0 {
		return fmt.Errorf("inc: a change set names variable %d of a graph of %d", c.EvidenceChanged[i], nV)
	}
	return nil
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
