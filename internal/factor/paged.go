package factor

// Page geometry of the copy-on-write side tables. A page of overflow rows
// (slice headers) is 768 bytes, a page of semantics offsets 128: small
// enough that a patch touching a few dozen scattered variables clones a
// few kilobytes, large enough that the directory a patch copies is 1/32
// of a pointer per row.
const (
	pageShift = 5
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// paged is a persistent table of n rows, indexed like a slice, stored in
// fixed-size pages behind a directory. It is what lets the graphs of a
// patch lineage share their per-variable and per-group side tables: a
// patch forks the table (copies the directory, one pointer per page),
// clones only the pages holding a row it rewrites, and appends new rows
// into the tail page in place — past every older graph's n, the same rule
// the pools follow. An older graph's table therefore never changes under
// it, however many patches later, and a patch costs O(directory + pages
// written) instead of a copy of the table.
//
// The zero value is the absent table (no graph of the lineage has been
// patched yet); present distinguishes it from a present table of zero rows.
type paged[T any] struct {
	pages []*[pageSize]T
	n     int
}

// newPaged returns a present table of n zero rows and the rows themselves,
// contiguous, for the caller to fill.
func newPaged[T any](n int) (paged[T], []T) {
	np := (n + pageMask) >> pageShift
	flat := make([]T, np<<pageShift)
	t := paged[T]{pages: make([]*[pageSize]T, np, np+np/8+2), n: n}
	for i := range t.pages {
		t.pages[i] = (*[pageSize]T)(flat[i<<pageShift:])
	}
	return t, flat[:n]
}

func (t *paged[T]) present() bool { return t.pages != nil }

// at returns row i.
func (t *paged[T]) at(i int32) T { return t.pages[i>>pageShift][i&pageMask] }

// rows copies the table out as one slice: nil when absent.
func (t *paged[T]) rows() []T {
	if t.pages == nil {
		return nil
	}
	out := make([]T, 0, t.n)
	for _, p := range t.pages {
		out = append(out, p[:min(pageSize, t.n-len(out))]...)
	}
	return out
}

// fork returns a table a patch may write: every page shared with t behind
// a directory of its own, or — when t is absent — n fresh zero rows.
func (t *paged[T]) fork(n int) paged[T] {
	if t.pages == nil {
		f, _ := newPaged[T](n)
		return f
	}
	d := make([]*[pageSize]T, len(t.pages), len(t.pages)+len(t.pages)/8+2)
	copy(d, t.pages)
	return paged[T]{pages: d, n: t.n}
}

// set writes row i of a table forked from base. A page still shared with
// base is cloned first, unless the row lies past base's rows: those slots
// no graph up the lineage reads.
func (t *paged[T]) set(base *paged[T], i int32, v T) {
	pi := int(i >> pageShift)
	if pi < len(base.pages) && t.pages[pi] == base.pages[pi] && int(i) < base.n {
		c := *t.pages[pi]
		t.pages[pi] = &c
	}
	t.pages[pi][i&pageMask] = v
}

// push appends one row to a forked table.
func (t *paged[T]) push(v T) {
	if t.n == len(t.pages)<<pageShift {
		t.pages = append(t.pages, new([pageSize]T))
	}
	t.pages[t.n>>pageShift][t.n&pageMask] = v
	t.n++
}
