package deepdive_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"deepdive"
	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/inc"
	"deepdive/internal/kbc"
	"deepdive/internal/persist"
)

// TestLearnAfterMaterializeKeepsPr0: Learn on a materialized KB trains the
// served graph, never the engine's Pr(0). Pr(0) keeps the weights it was
// materialized under, so its worlds — drawn later, or by the engine a
// recovery re-materializes — are the ones Materialize meant, and the
// drift reaches the next update as pending change, a cancelled Learn's
// too. On the wire corpus Pr(0)'s image stays byte for byte what it was
// through Learn, the six rule iterations and a document stream, all of
// which train or patch the served graph in place.
func TestLearnAfterMaterializeKeepsPr0(t *testing.T) {
	kb := spouseKBRaw(t)
	must(t, kb.Init(ctx))
	_, err := kb.Materialize(ctx)
	must(t, err)
	eng, _ := kb.Engine()
	w0 := slices.Clone(eng.OldGraph().Weights())
	_, err = kb.Learn(ctx)
	must(t, err)
	if slices.Equal(kb.Weights(), w0) {
		t.Fatal("Learn moved no weight")
	}
	if got := eng.OldGraph().Weights(); !slices.Equal(got, w0) {
		moved := 0
		for w := range got {
			if got[w] != w0[w] {
				moved++
			}
		}
		t.Fatalf("Learn rewrote %d of Pr(0)'s %d weights", moved, len(w0))
	}
	if p := kb.Pending(); !p.StructureChanged() {
		t.Fatalf("the learned drift did not reach the next update: pending %+v", p)
	}

	// A cancelled Learn leaves its last completed step's weights installed:
	// they are served, and their drift carries to the next update.
	for _, after := range []int{5, 20, 100} {
		kb := spouseKBRaw(t)
		must(t, kb.Init(ctx))
		_, err := kb.Materialize(ctx)
		must(t, err)
		w0 := kb.Weights()
		if _, err := kb.Learn(&cancelAt{Context: ctx, after: after}); err == nil {
			t.Fatalf("Learn cancelled at check %d finished", after)
		}
		if slices.Equal(kb.Weights(), w0) {
			t.Fatalf("Learn cancelled at check %d: the served weights did not move", after)
		}
		if p := kb.Pending(); !p.StructureChanged() {
			t.Fatalf("Learn cancelled at check %d: its drift did not reach the next update: pending %+v", after, p)
		}
	}

	w := newWireCorpus(t, 3, 1, 8)
	kb = w.open(t, 0, 0)
	_, err = kb.Materialize(ctx)
	must(t, err)
	eng, _ = kb.Engine()
	image := func() []byte {
		var b persist.Buf
		eng.OldGraph().AppendSnapshot(&b)
		return b.Bytes()
	}
	pr0 := image()
	step := func(name string) {
		if !bytes.Equal(image(), pr0) {
			t.Fatalf("after %s Pr(0)'s image moved", name)
		}
	}
	_, err = kb.Learn(ctx)
	must(t, err)
	step("Learn")
	for _, name := range kbc.IterationNames {
		_, err := kb.Apply(ctx, deepdive.Update{RuleSource: kbc.IterationRules(w.sys, name)})
		must(t, err)
		step(name)
	}
	for i, u := range w.stream {
		_, err := kb.Apply(ctx, u)
		must(t, err)
		step(fmt.Sprintf("stream update %d", i))
	}
}

// cancelAt reports cancellation from its after-th Err call on.
type cancelAt struct {
	context.Context
	after, calls int
}

func (c *cancelAt) Err() error {
	if c.calls++; c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// drawnDigest digests what a drawn engine holds of Pr(0): every stored
// world, then the approximation's edges and unaries.
func drawnDigest(st *gibbs.Store, vm *inc.Variational) string {
	h := fnv.New64a()
	put := func(u uint64) {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := 0; i < st.Len(); i++ {
		for _, b := range st.Get(i, nil) {
			if b {
				put(1)
			} else {
				put(0)
			}
		}
	}
	for _, ed := range vm.Edges {
		put(uint64(ed.I))
		put(uint64(ed.J))
		put(math.Float64bits(ed.W))
	}
	for _, u := range vm.Unaries {
		put(uint64(u.V))
		put(math.Float64bits(u.W))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDeferredMaterializationOnTheWireCorpus: every component of the News
// wire corpus enumerates, so Materialize draws no world and fits nothing,
// and neither the autopilot's stats nor updates solved exactly make it. The
// first read then draws the store and fits the approximation the eager
// materialization made — the digest was recorded from it — whether it
// comes at once, after stream updates, or after a cancelled attempt; and a
// sampling run over each store is the same run.
func TestDeferredMaterializationOnTheWireCorpus(t *testing.T) {
	w := newWireCorpus(t, 3, 1, 6)
	open := func() (*deepdive.KB, *inc.Engine) {
		kb := w.open(t, 6, 0)
		_, err := kb.Materialize(ctx)
		must(t, err)
		eng, _ := kb.Engine()
		if eng.Drawn() || eng.Solved().Swept != 0 {
			t.Fatalf("Materialize drew its store (solved %+v)", eng.Solved())
		}
		ap := kb.Autopilot()
		if ap.StoreLen != 1200 || ap.StoreRemaining != 1200 || ap.VariationalFactors != 0 || eng.Drawn() {
			t.Fatalf("before the draw the autopilot reads %+v", ap)
		}
		return kb, eng
	}
	kb, ref := open()
	if got := drawnDigest(ref.Store(), ref.Variational()); got != "95d2d0dca3f85780" {
		t.Fatalf("the drawn engine moved from the eager one: digest %s", got)
	}
	if ap := kb.Autopilot(); ap.VariationalFactors != ref.Variational().NumFactors() || ap.VariationalFactors == 0 {
		t.Fatalf("after the draw the autopilot reads %d factors, the approximation holds %d", ap.VariationalFactors, ref.Variational().NumFactors())
	}

	// One sampling run, over every store: weight 0 of the Pr(0) graph moved.
	newG := factor.NewPatch(ref.OldGraph().Clone()).Apply()
	newG.SetWeight(0, newG.Weight(0)+0.7)
	var cs inc.ChangeSet
	for gi := 0; gi < newG.NumGroups(); gi++ {
		if newG.GroupWeight(gi) == 0 {
			cs.ChangedOld = append(cs.ChangedOld, int32(gi))
			cs.ChangedNew = append(cs.ChangedNew, int32(gi))
		}
	}
	sampled := func(e *inc.Engine) *inc.Result {
		return inc.SamplingInferCtx(nil, e.OldGraph(), newG, e.Store(), cs, inc.ComponentGroups(newG, nil), nil, 300, 17)
	}
	digest, want := drawnDigest(ref.Store(), ref.Variational()), sampled(ref)
	if len(cs.ChangedNew) == 0 || want.AcceptanceRate == 1 {
		t.Fatalf("the sampling run tests nothing: %d groups changed, acceptance %v", len(cs.ChangedNew), want.AcceptanceRate)
	}

	for _, point := range []struct {
		name string
		at   func(*deepdive.KB, *inc.Engine) *inc.Engine
	}{
		{"after updates", func(kb *deepdive.KB, e *inc.Engine) *inc.Engine {
			for _, u := range w.stream {
				res, err := kb.Apply(ctx, u)
				must(t, err)
				if res.Strategy != inc.StrategyExact {
					t.Fatalf("a stream update ran %v, want it solved exactly", res.Strategy)
				}
			}
			if now, _ := kb.Engine(); now != e {
				t.Fatal("the stream refilled the store")
			}
			return e
		}},
		{"after a cancelled attempt", func(_ *deepdive.KB, e *inc.Engine) *inc.Engine {
			for _, after := range []int{1, 3, 40} {
				c := &cancelAt{Context: ctx, after: after}
				e.AutoInferCtx(c, e.OldGraph(), inc.ChangeSet{}, nil, false)
				if c.calls < after {
					t.Fatalf("the attempt cancelled at check %d made %d", after, c.calls)
				}
			}
			return e
		}},
	} {
		kb, e := open()
		e = point.at(kb, e)
		if e.Drawn() {
			t.Fatalf("%s: drawn before the first read", point.name)
		}
		if got := drawnDigest(e.Store(), e.Variational()); got != digest {
			t.Errorf("%s: digest %s, the eager engine's %s", point.name, got, digest)
		}
		if got := sampled(e); !reflect.DeepEqual(got.Marginals, want.Marginals) || got.AcceptanceRate != want.AcceptanceRate {
			t.Errorf("%s: the sampling run moved: acceptance %v, want %v", point.name, got.AcceptanceRate, want.AcceptanceRate)
		}
	}
}
