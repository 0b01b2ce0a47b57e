package deepdive

// RebuiltSnapshot is the differential tests' oracle: what the KB serves —
// the same marginal vector, the same epoch — over a skeleton rebuilt from
// the grounder's tables, sharing nothing with the served lineage.
func (kb *KB) RebuiltSnapshot() *Snapshot {
	kb.groundMu.Lock()
	defer kb.groundMu.Unlock()
	kb.seqDrain()
	kb.stateMu.Lock()
	defer kb.stateMu.Unlock()
	served := kb.snap.Load()
	s := &Snapshot{skeleton: *kb.buildSkeleton(kb.curGraph), epoch: served.epoch, marg: kb.marg}
	s.stats.Autopilot = served.stats.Autopilot
	return s
}
