package deepdive_test

import (
	"maps"
	"sync"
	"testing"

	"deepdive"
	"deepdive/internal/kbc"
)

// TestConcurrentWholeGraphSolves runs the whole-graph solves of two KBs at
// once — KB.Infer on one, the six rule iterations on the other, whose
// whole-rule updates are solved unscoped — and checks both against the
// same work done alone, bit for bit. Every whole-graph solve draws its
// State and component arrays from one pool shared by every KB in the
// process; under -race (make race) this is that pool's concurrency proof.
func TestConcurrentWholeGraphSolves(t *testing.T) {
	w := newWireCorpus(t, 3, 1, 0)
	const infers = 3
	inferAll := func(kb *deepdive.KB) error {
		for range infers {
			if _, err := kb.Infer(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	iterate := func(kb *deepdive.KB) error {
		for _, name := range kbc.IterationNames {
			if _, err := kb.Apply(ctx, deepdive.Update{RuleSource: kbc.IterationRules(w.sys, name)}); err != nil {
				return err
			}
		}
		return nil
	}
	fresh := func() *deepdive.KB {
		kb := w.open(t, 0, 0)
		_, err := kb.Materialize(ctx)
		must(t, err)
		return kb
	}

	alone := w.materialized(t)
	must(t, inferAll(alone))
	wantInfer := factBits(w, alone)
	alone = fresh()
	must(t, iterate(alone))
	wantIterate := factBits(w, alone)

	// KB a infers again and again until KB b's iterations are done, so the
	// two KBs' solves overlap.
	a, b := w.materialized(t), fresh()
	var wg sync.WaitGroup
	var errA, errB error
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for errA == nil {
			if errA = inferAll(a); errA != nil {
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	go func() { defer wg.Done(); defer close(done); errB = iterate(b) }()
	wg.Wait()
	must(t, errA)
	must(t, errB)
	if got := factBits(w, a); !maps.Equal(got, wantInfer) {
		t.Error("KB.Infer beside a rule-updating KB served other marginals than alone")
	}
	if got := factBits(w, b); !maps.Equal(got, wantIterate) {
		t.Error("the rule iterations beside an inferring KB served other marginals than alone")
	}
}
