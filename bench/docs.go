package main

import (
	"deepdive"
	"deepdive/internal/corpus"
)

// docPool hands out documents for update streams. The first corpus is
// the KB's own: a share of its documents is loaded, the rest is held out
// and streamed first. When those run out the pool generates further
// corpora of the same spec (same entity namespace, fresh sentences) and
// renumbers their documents so ids never collide.
type docPool struct {
	spec    corpus.Spec
	sys     *corpus.System              // the KB's corpus (ground truth, relation specs)
	base    map[string][]deepdive.Tuple // its non-document relations
	loaded  []doc                       // documents the KB starts with
	pending []doc                       // held-out / generated, not yet handed out
	corpora int
	// CorpusMS is what generating the first corpus cost.
	CorpusMS float64
}

// newDocPool generates the KB's corpus and holds out the last holdout
// share of its documents.
func newDocPool(spec corpus.Spec, holdout float64) *docPool {
	p := &docPool{spec: spec, corpora: 1}
	p.sys, p.base, p.CorpusMS = genSystem(spec)
	docs := splitDocs(p.base)
	keep := len(docs) - int(float64(len(docs))*holdout)
	p.loaded, p.pending = docs[:keep], docs[keep:]
	return p
}

// next returns the next unseen document.
func (p *docPool) next() doc {
	for len(p.pending) == 0 {
		spec := p.spec
		spec.Seed = p.spec.Seed + 7919*int64(p.corpora)
		_, base, _ := genSystem(spec)
		for i, d := range splitDocs(base) {
			p.pending = append(p.pending, renumber(d, p.corpora*100000+i))
		}
		p.corpora++
	}
	d := p.pending[0]
	p.pending = p.pending[1:]
	return d
}

// streamOp is one update of a document stream: insert a new document or
// delete one inserted earlier.
type streamOp struct {
	Delete bool
	Doc    doc
	// After is the index of the operation that inserted the document a
	// delete removes (-1 for inserts): the delete may not be sent before
	// that insert is acknowledged.
	After int
}

func (o streamOp) update() deepdive.Update {
	if o.Delete {
		return deepdive.Update{Deletes: o.Doc.Tuples}
	}
	return deepdive.Update{Inserts: o.Doc.Tuples}
}

// makeStream builds n operations: inserts of fresh documents, with every
// deleteEvery-th operation deleting the oldest still-present document
// inserted at least lag operations earlier (0 disables deletes).
func makeStream(p *docPool, n, deleteEvery, lag int) []streamOp {
	ops := make([]streamOp, 0, n)
	var present []int // indices of insert ops whose document is still present
	for i := 0; i < n; i++ {
		if deleteEvery > 0 && i%deleteEvery == deleteEvery-1 && len(present) > 0 && i-present[0] >= lag {
			at := present[0]
			present = present[1:]
			ops = append(ops, streamOp{Delete: true, Doc: ops[at].Doc, After: at})
			continue
		}
		ops = append(ops, streamOp{Doc: p.next(), After: -1})
		present = append(present, i)
	}
	return ops
}
