package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files, around the calls into each layer's
// public functions; times are nanoseconds since the tracer started.
// Spans of one request share Req; Parent is the span that caused this
// one (-1 for a root). A span with Reported set was not timed here: its
// duration was reported by the system (UpdateResult's stage timers) and
// it is laid into its parent's interval so that self-time arithmetic
// applies to it like any other child.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Req      int64  `json:"req"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Reported bool   `json:"reported,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing and costs one branch per call, which is what
// the untraced (end-to-end) pass runs with.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.enabled() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 || !t.enabled() {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval is already known (absolute times).
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) int32 {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id
}

// reported lays system-reported stage durations into parent back to
// back, ending at the parent's end (the stages of an update run last:
// queue wait and admission come first). Durations are clipped so the
// children never leave the parent's interval.
func (t *tracer) reported(parent int32, req int64, names []string, durs []time.Duration) {
	if parent < 0 || !t.enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	total := int64(0)
	for _, d := range durs {
		total += int64(d)
	}
	at := p.End - total
	if at < p.Start {
		at = p.Start
	}
	for i, name := range names {
		end := at + int64(durs[i])
		if end > p.End {
			end = p.End
		}
		id := int32(len(t.spans))
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: at, End: end, Reported: true})
		at = end
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its child spans cover (overlapping children are counted
// once; children are clipped to the parent).
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		dur := s.End - s.Start
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, k := range ks {
			if k.s < s.Start {
				k.s = s.Start
			}
			if k.e > s.End {
				k.e = s.End
			}
			if k.e <= k.s {
				continue
			}
			if curE < 0 {
				curS, curE = k.s, k.e
				continue
			}
			if k.s <= curE {
				if k.e > curE {
					curE = k.e
				}
				continue
			}
			covered += curE - curS
			curS, curE = k.s, k.e
		}
		if curE >= 0 {
			covered += curE - curS
		}
		self[i] = dur - covered
	}
	return self
}

// budgetRow is one line of a per-layer latency budget.
type budgetRow struct {
	Name   string  `json:"name"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Count  float64 `json:"spans_per_request"`
}

// budget decomposes a latency by layer. It takes the requests (root
// spans named root) whose total latency lies between the lo-th and hi-th
// percentile, and averages each span name's self time over them: the
// rows sum exactly to that band's mean latency. With the band 45–55 the
// mean sits on the median, so the parts add up to the observed p50
// without mixing in the tail; with 0–100 they add up to the mean.
func budget(spans []span, root string, lo, hi float64) (rows []budgetRow, totalMS float64, requests int) {
	self := selfTimes(spans)
	type req struct {
		id  int32
		dur int64
	}
	var roots []req
	for _, s := range spans {
		if s.Name == root && s.Parent < 0 && s.End >= s.Start {
			roots = append(roots, req{s.ID, s.End - s.Start})
		}
	}
	if len(roots) == 0 {
		return nil, 0, 0
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].dur < roots[b].dur })
	band := roots[rank(len(roots), lo) : rank(len(roots), hi)+1]
	inBand := make(map[int32]bool, len(band))
	for _, r := range band {
		inBand[r.id] = true
	}
	// rootOf follows parents to the root; spans are appended after their
	// parents, so a forward pass resolves every chain.
	rootOf := make([]int32, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = s.ID
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	sums := map[string]float64{}
	counts := map[string]float64{}
	for i, s := range spans {
		if s.End < s.Start || !inBand[rootOf[i]] {
			continue
		}
		sums[s.Name] += float64(self[i])
		counts[s.Name]++
	}
	n := float64(len(band))
	for name, v := range sums {
		rows = append(rows, budgetRow{Name: name, SelfMS: v / n / 1e6, Count: counts[name] / n})
		totalMS += v / n / 1e6
	}
	for i := range rows {
		if totalMS > 0 {
			rows[i].Share = rows[i].SelfMS / totalMS
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfMS > rows[b].SelfMS })
	return rows, totalMS, len(band)
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if !t.enabled() {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"workload": workload, "unit": "ns since trace start", "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

func (t *tracer) snapshot() []span {
	if !t.enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
