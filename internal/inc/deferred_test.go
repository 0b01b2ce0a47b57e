package inc

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"deepdive/internal/gibbs"
)

// drawnHash digests what a drawn engine holds of Pr(0): every stored world,
// then the approximation's edges and unaries.
func drawnHash(st *gibbs.Store, vm *Variational) string {
	h := fnv.New64a()
	put := func(u uint64) {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, world := range storeWorlds(st, 0) {
		for _, b := range world {
			if b {
				put(1)
			} else {
				put(0)
			}
		}
	}
	if vm != nil {
		for _, ed := range vm.Edges {
			put(uint64(ed.I))
			put(uint64(ed.J))
			put(math.Float64bits(ed.W))
		}
		for _, u := range vm.Unaries {
			put(uint64(u.V))
			put(math.Float64bits(u.W))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDeferredStepIsTheEagerOne: an engine with nothing to sweep draws its
// store and fits its approximation on the first read, and that read makes
// what NewEngine made when it did both at once — the same worlds, the same
// edges and unaries, the same sampling run over them — whether it comes
// right after NewEngine, after updates its components solved exactly, or
// after a cancelled attempt. The digest and the sampling run were recorded from
// the eager NewEngine on this fixture.
func TestDeferredStepIsTheEagerOne(t *testing.T) {
	e, newG, cs, _ := scopeFixture(t)
	if e.Drawn() {
		t.Fatal("a materialization with nothing to sweep drew its store")
	}
	if n, left := e.StoreLevel(); n != 700 || left != 700 {
		t.Fatalf("the undrawn store reads %d worlds, %d left; want the 700 it will hold", n, left)
	}
	// The eager reference: the tables solved again, the stream drawn from
	// its start, the approximation fit to it.
	w, _ := newWorlds(nil, e.old, e.opts, e.opts.MaterializationSamples, e.opts.Seed)
	ref := gibbs.NewStore(e.old.NumVars())
	w.draw(nil, ref, e.opts.MaterializationSamples)
	vm, err := MaterializeVariational(e.old, ref, VariationalOptions{Lambda: e.opts.Lambda})
	if err != nil {
		t.Fatal(err)
	}
	if got := drawnHash(ref, vm); got != "ecaf8876669a0959" {
		t.Fatalf("the eager materialization moved: digest %s", got)
	}
	worlds := storeWorlds(ref, 0)
	sampled := func(e *Engine) *Result {
		return SamplingInferCtx(nil, e.OldGraph(), newG, e.Store(), cs, ComponentGroups(newG, nil), nil, 200, 42)
	}
	want := SamplingInferCtx(nil, e.old, newG, ref, cs, ComponentGroups(newG, nil), nil, 200, 42)
	if got := marginalHash(want.Marginals); got != "c94c6fff8ac0b443" || want.AcceptanceRate != 0.8583333333333333 || want.SamplesUsed != 600 {
		t.Fatalf("the sampling run over the eager store moved: %s, acceptance %v over %d tests", got, want.AcceptanceRate, want.SamplesUsed)
	}

	for _, point := range []struct {
		name string
		at   func(e *Engine) *Engine
	}{
		{"at once", func(e *Engine) *Engine { return e }},
		{"after updates", func(e *Engine) *Engine {
			for range 3 {
				if r := e.AutoInferCtx(nil, newG, cs, nil, true); r.Strategy != StrategyExact {
					t.Fatalf("the fixture's update ran %v, want it solved exactly", r.Strategy)
				}
			}
			return e
		}},
		{"after a cancelled draw", func(e *Engine) *Engine {
			if err := e.materialize(&countdown{Context: context.Background(), after: 1}); err != context.Canceled {
				t.Fatalf("the cancelled draw returned %v", err)
			}
			return e
		}},
		{"after a cancelled fit", func(e *Engine) *Engine {
			if err := e.materialize(&countdown{Context: context.Background(), after: 6}); err != context.Canceled {
				t.Fatalf("the cancelled fit returned %v", err)
			}
			return e
		}},
	} {
		e, _, _, _ := scopeFixture(t)
		e = point.at(e)
		if e.Drawn() {
			t.Fatalf("%s: drawn before the first read", point.name)
		}
		if !reflect.DeepEqual(storeWorlds(e.Store(), 0), worlds) {
			t.Errorf("%s: other worlds than the eager store's", point.name)
		}
		if !reflect.DeepEqual(e.Variational().Edges, vm.Edges) || !reflect.DeepEqual(e.Variational().Unaries, vm.Unaries) {
			t.Errorf("%s: another approximation than the eager one", point.name)
		}
		if got := sampled(e); !reflect.DeepEqual(got.Marginals, want.Marginals) || got.AcceptanceRate != want.AcceptanceRate || got.SamplesUsed != want.SamplesUsed {
			t.Errorf("%s: the sampling run moved: acceptance %v over %d tests", point.name, got.AcceptanceRate, got.SamplesUsed)
		}
	}
}

// TestDeferredStepReads: every read that needs the store or the
// approximation draws them — a strategy choice, a run, a top-up, Store,
// Variational — and a scope and a store level do not.
func TestDeferredStepReads(t *testing.T) {
	e, newG, cs, seeds := scopeFixture(t)
	e.Scope(newG, seeds, nil)
	e.StoreLevel()
	if e.Drawn() {
		t.Fatal("a scope or a store level drew the store")
	}
	for name, read := range map[string]func(e *Engine){
		"Store":                     func(e *Engine) { e.Store() },
		"Variational":               func(e *Engine) { e.Variational() },
		"ChooseStrategyMeasured":    func(e *Engine) { e.opts.MeasuredOptimizer = true; e.ChooseStrategyMeasured(newG, cs) },
		"inferAs":                   func(e *Engine) { e.inferAs(nil, newG, cs, StrategyVariational, nil, nil) },
		"AutoInferCtx undecomposed": func(e *Engine) { e.AutoInferCtx(nil, newG, cs, nil, false) },
		"MaterializeForBudget":      func(e *Engine) { e.MaterializeForBudget(0) },
	} {
		e, _, _, _ := scopeFixture(t)
		if read(e); !e.Drawn() {
			t.Errorf("%s did not draw the store", name)
		}
	}
}
