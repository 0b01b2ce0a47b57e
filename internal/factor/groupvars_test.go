package factor

import "testing"

// viewGraph builds a small coupled graph for the nested-view comparison.
func viewGraph() *Graph {
	b := NewBuilder()
	v0, v1, v2 := b.AddVar(), b.AddVar(), b.AddVar()
	ev := b.AddEvidenceVar(true)
	w0, w1 := b.AddWeight(0.5), b.AddWeight(-0.3)
	b.AddGroup(v0, w0, Linear, []Grounding{{Lits: []Literal{{Var: v1}}}})
	b.AddGroup(v1, w1, Ratio, []Grounding{
		{Lits: []Literal{{Var: v2}, {Var: ev}}},
		{Lits: []Literal{{Var: v0, Neg: true}}},
	})
	return b.MustBuild()
}

// TestGroupVarsMatchesNestedView checks the CSR-direct group-variable
// walk against the synthesized nested view, on both fresh and patched
// graphs (live groundings only).
func TestGroupVarsMatchesNestedView(t *testing.T) {
	g := viewGraph()
	p := NewPatch(g)
	w := p.AddWeight(0.2)
	nv := p.AddVar()
	gi := p.AddGroup(nv, w, Logical)
	p.AddGrounding(gi, []Literal{{Var: 1}, {Var: 2, Neg: true}})
	p.RemoveGrounding(1) // tombstone group 1's first grounding (global index 1)
	patched := p.Apply()

	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"fresh", g}, {"patched", patched}} {
		for i := 0; i < tc.g.NumGroups(); i++ {
			want := map[VarID]int{}
			gr := tc.g.Group(i)
			want[gr.Head]++
			for _, gnd := range gr.Groundings {
				for _, lit := range gnd.Lits {
					want[lit.Var]++
				}
			}
			got := map[VarID]int{}
			tc.g.GroupVars(int32(i), func(v VarID) { got[v]++ })
			if len(got) != len(want) {
				t.Fatalf("%s group %d: GroupVars saw %v, nested view %v", tc.name, i, got, want)
			}
			for v, n := range want {
				if got[v] != n {
					t.Fatalf("%s group %d var %d: %d visits, want %d", tc.name, i, v, got[v], n)
				}
			}
		}
	}
}
