package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// encoderFacts is the /v1/facts body as encoding/json writes it for the
// handler's reply map: the reference the rendered tables must reproduce
// byte for byte. threshold "" is an unthresholded scan.
func encoderFacts(t *testing.T, epoch uint64, rel string, facts []Fact, threshold string) []byte {
	t.Helper()
	if threshold != "" {
		th, err := strconv.ParseFloat(threshold, 64)
		if err != nil {
			t.Fatal(err)
		}
		kept := facts[:0:0]
		for _, f := range facts {
			if f.Known && f.Probability > th {
				kept = append(kept, f)
			}
		}
		facts = kept
	}
	if facts == nil {
		facts = []Fact{}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"relation": rel, "epoch": epoch, "facts": facts}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encoderMarginal is the /v1/marginal body as encoding/json writes it
// for the reply maps the typed replies replaced.
func encoderMarginal(t *testing.T, epoch uint64, rel string, tuple []string, p float64, known bool) []byte {
	t.Helper()
	body := map[string]any{"relation": rel, "tuple": tuple, "known": known, "epoch": epoch}
	if known {
		body["probability"] = p
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func factsPath(rel, threshold string) string {
	q := url.Values{"relation": {rel}}
	if threshold != "" {
		q.Set("threshold", threshold)
	}
	return "/v1/facts?" + q.Encode()
}

// serveBody runs one GET through h in memory.
func serveBody(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", path, ct)
	}
	return rec.Code, rec.Body.Bytes()
}

// escapeView holds what the encoder treats specially: HTML-escaped and
// non-ASCII text, evidence facts (an omitempty field), facts no
// inference has covered, probabilities on the thresholds, and a relation
// with no facts.
func escapeView(epoch uint64, shift float64) *fakeView {
	return &fakeView{
		epoch: epoch,
		rels: map[string][]Fact{
			"Mixed": {
				{Tuple: []string{"<b>", "a&b"}, Probability: 0.5 + shift, Known: true},
				{Tuple: []string{"Zoë", "日本語"}, Probability: 0.1, Known: true},
				{Tuple: []string{`"quoted"`, `back\slash`}, Probability: 1, Known: true, Evidence: true},
				{Tuple: []string{"x", "y"}, Probability: 0, Known: true, Evidence: true},
				{Tuple: []string{"u", "v"}, Probability: 0.9, Known: false},
				{Tuple: []string{"p", "q"}, Probability: 0, Known: true},
				{Tuple: []string{"tab\tnl\n", " "}, Probability: 0.123456789 + shift, Known: true},
			},
			"R&<D>": {
				{Tuple: []string{"only"}, Probability: 0.75, Known: true},
			},
			"Empty": {},
		},
	}
}

// TestFactsBytesMatchEncoder pins /v1/facts and /v1/marginal to the bytes
// encoding/json writes for the same view: on the scan that renders a
// relation's table, on the scans that copy it, and after a publication
// replaces the view.
func TestFactsBytesMatchEncoder(t *testing.T) {
	b := newFakeBackend(escapeView(1, 0))
	h := New(b, Options{}).Handler()
	check := func(v *fakeView) {
		t.Helper()
		for _, rel := range []string{"Mixed", "R&<D>", "Empty", "Missing"} {
			for _, th := range []string{"", "0", "0.1", "0.5", "1"} {
				want := encoderFacts(t, v.epoch, rel, v.rels[rel], th)
				for pass := 0; pass < 2; pass++ {
					code, got := serveBody(t, h, factsPath(rel, th))
					if code != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("epoch %d %s threshold %q pass %d: %d\n got %s\nwant %s", v.epoch, rel, th, pass, code, got, want)
					}
				}
			}
		}
		for _, c := range []struct {
			tuple []string
			code  int
		}{
			{[]string{"<b>", "a&b"}, http.StatusOK},
			{[]string{"p", "q"}, http.StatusOK}, // known at p = 0
			{[]string{"u", "v"}, http.StatusNotFound},
			{[]string{"no", "such"}, http.StatusNotFound},
		} {
			p, known := v.Marginal("Mixed", c.tuple)
			want := encoderMarginal(t, v.epoch, "Mixed", c.tuple, p, known)
			q := url.Values{"relation": {"Mixed"}, "tuple": c.tuple}
			code, got := serveBody(t, h, "/v1/marginal?"+q.Encode())
			if code != c.code || !bytes.Equal(got, want) {
				t.Fatalf("marginal %q: %d\n got %s\nwant %s", c.tuple, code, got, want)
			}
		}
	}
	check(escapeView(1, 0))
	v2 := escapeView(2, 0.25)
	b.publish(v2)
	check(v2)
}

// epochView is the view a publishing writer serves at epoch e: every
// probability depends on e, so bytes rendered for another epoch show.
func epochView(e uint64, n int) *fakeView {
	facts := make([]Fact, n)
	for i := range facts {
		facts[i] = Fact{
			Tuple:       []string{fmt.Sprintf("f%d", i)},
			Probability: float64((i+int(e))%10) / 10,
			Known:       true,
			Evidence:    i%7 == 0,
		}
	}
	return &fakeView{epoch: e, rels: map[string][]Fact{"R": facts}}
}

// TestFactsCacheUnderPublication races /v1/facts readers against a writer
// publishing a new view in a loop: every reply must be of a view current
// while it was served, and the encoder's bytes for the view of the epoch it
// names, never another epoch's table.
func TestFactsCacheUnderPublication(t *testing.T) {
	const n, publications, readers = 40, 100, 4
	b := newFakeBackend(epochView(1, n))
	h := New(b, Options{}).Handler()
	// The reference bodies, built before the race starts.
	thresholds := []string{"", "0.45"}
	want := make(map[string][][]byte)
	for _, th := range thresholds {
		want[th] = make([][]byte, publications+2)
		for e := uint64(1); e <= publications+1; e++ {
			want[th][e] = encoderFacts(t, e, "R", epochView(e, n).rels["R"], th)
		}
	}
	views := make([]*fakeView, publications+2)
	for e := range views {
		views[e] = epochView(uint64(e), n)
	}

	done := make(chan struct{})
	errs := make(chan error, readers)
	var served atomic.Int64 // replies checked, for pacing the writer
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(th string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				lo := b.View().Epoch()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, factsPath("R", th), nil))
				hi := b.View().Epoch()
				var body struct {
					Epoch uint64 `json:"epoch"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					errs <- err
					return
				}
				// The reply is of a view published while it was served.
				if body.Epoch < lo || body.Epoch > hi {
					errs <- fmt.Errorf("served epoch %d, published around the request: %d to %d", body.Epoch, lo, hi)
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want[th][body.Epoch]) {
					errs <- fmt.Errorf("epoch %d threshold %q: got %s\nwant %s", body.Epoch, th, rec.Body.Bytes(), want[th][body.Epoch])
					return
				}
				served.Add(1)
			}
		}(thresholds[r%len(thresholds)])
	}
	// Each view is up for a few replies, so readers straddle publications.
	for e := 2; e <= publications+1 && len(errs) == 0; e++ {
		for target := served.Load() + readers; served.Load() < target && len(errs) == 0; {
			runtime.Gosched()
		}
		b.publish(views[e])
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so that an
// allocation count is the handler's alone.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestFactsScanAllocations pins "rendered once per view": once a
// relation's table exists, a scan allocates no more for 1 000 facts than
// for 10.
func TestFactsScanAllocations(t *testing.T) {
	allocs := func(n int, threshold string) float64 {
		h := New(newFakeBackend(epochView(1, n)), Options{}).Handler()
		req := httptest.NewRequest(http.MethodGet, factsPath("R", threshold), nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		return testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
	}
	for _, th := range []string{"", "0.45"} {
		small, large := allocs(10, th), allocs(1000, th)
		t.Logf("threshold %q: %.1f allocs per scan of 10 facts, %.1f of 1000", th, small, large)
		if large > small+2 {
			t.Errorf("threshold %q: a cached scan of 1000 facts allocates %.1f, of 10 facts %.1f", th, large, small)
		}
	}
}

// TestReadAllocations pins what the reads allocate. A point read answered
// from the reply kept for its epoch allocates nothing; one that renders at
// a new epoch allocates the string its query's unescaped values are cut
// from and the reply it keeps (the entry, its query and its body); a
// cached facts scan allocates at most that one string. None builds a query
// map, a reflected encoder or a header slice. (The point read allocated 7,
// the scans 5 and 4, when the handlers read r.URL.Query() and wrote
// through json.Encoder; before replies were kept, every point read
// allocated 1.)
func TestReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	v := epochView(1, 100)
	v.rels["R"][7].Tuple = []string{"m:s3_1:2:4 b"} // one component: the fake's lookup then allocates nothing
	b := newFakeBackend(v)
	h := New(b, Options{}).Handler()
	w := &discardWriter{h: http.Header{}}
	marginal := "/v1/marginal?" + url.Values{"relation": {"R"}, "tuple": v.rels["R"][7].Tuple}.Encode()
	for _, c := range []struct {
		path string
		max  float64
	}{
		{marginal, 0},
		{factsPath("R", "0.45"), 1},
		{factsPath("R", ""), 1},
	} {
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		h.ServeHTTP(w, req) // renders R's table, or keeps the point read's reply
		n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
		t.Logf("GET %s: %.1f allocs", c.path, n)
		if n > c.max {
			t.Errorf("GET %s: %.1f allocs, want at most %.0f", c.path, n, c.max)
		}
	}

	// Each read of the point read's query at a new epoch renders its reply.
	const runs = 200
	views := make([]*fakeView, runs+2)
	for i := range views {
		views[i] = &fakeView{epoch: uint64(i + 2), rels: v.rels}
	}
	req := httptest.NewRequest(http.MethodGet, marginal, nil)
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		b.publish(views[next])
		next++
		h.ServeHTTP(w, req)
	})
	t.Logf("GET %s at a new epoch: %.1f allocs", marginal, n)
	if n > 4 {
		t.Errorf("GET %s at a new epoch: %.1f allocs, want at most 4", marginal, n)
	}
}
