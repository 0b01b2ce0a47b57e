package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// marginalRender is the /v1/marginal reply to raw rendered afresh for v:
// the query decoded by url.ParseQuery, the body by appendMarginal, and the
// 400 as the handler writes it.
func marginalRender(v *fakeView, raw string) (int, []byte) {
	q, _ := url.ParseQuery(raw)
	rel, tuple := q.Get("relation"), q["tuple"]
	if rel == "" || len(tuple) == 0 {
		return http.StatusBadRequest, []byte(`{"error":"relation and at least one tuple parameter required"}` + "\n")
	}
	p, known := v.Marginal(rel, tuple)
	code := http.StatusOK
	if !known {
		code = http.StatusNotFound
	}
	return code, appendMarginal(nil, v.epoch, known, p, rel, tuple)
}

// serveMarginal runs GET /v1/marginal?raw through s in memory. The raw
// query is set as it is, without a URL parse in between.
func serveMarginal(s *Server, raw string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, "/v1/marginal", nil)
	req.URL.RawQuery = raw
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// cachedQueries lists the raw queries s holds a reply to.
func cachedQueries(s *Server) map[string]bool {
	held := make(map[string]bool)
	for i := range s.replies {
		if c := s.replies[i].Load(); c != nil {
			held[c.query] = true
		}
	}
	return held
}

// replyView is the view of epoch e the reply-cache tests publish: the
// relation R of TestReadQueryReplies, its probabilities moved by the
// epoch, beside facts f0, f2, … of relation F.
func replyView(e uint64) *fakeView {
	shift := float64(e%4) / 8
	facts := make([]Fact, 0, 50)
	for i := 0; i < 100; i += 2 {
		facts = append(facts, Fact{Tuple: []string{fmt.Sprintf("f%d", i)}, Probability: float64(i%10) / 10, Known: i%6 != 4})
	}
	return &fakeView{epoch: e, rels: map[string][]Fact{
		"R": {
			{Tuple: []string{"a b"}, Probability: 0.5 - shift, Known: true},
			{Tuple: []string{"a"}, Probability: 0.25 + shift, Known: true},
			{Tuple: []string{"<b>"}, Probability: 1, Known: true, Evidence: true},
			{Tuple: []string{"a+b;c"}, Probability: 0.75 - shift, Known: true},
		},
		"F": facts,
	}}
}

// readQueryTable is the raw queries of TestReadQueryReplies's /v1/marginal
// rows.
var readQueryTable = []string{
	"relation=R&tuple=a+b", "relation=R&tuple=a%20b", "relation=R&tuple=a%2Bb%3Bc",
	"relation=R;x&relation=R&tuple=a", "relation=R&tuple=a;b", "relation=%zz&relation=R&tuple=a",
	"relation=R&tuple=%zz&tuple=a", "relation=R&tuple=a%", "relation=R&relation=S&tuple=a",
	"relation=S&relation=R&tuple=a", "rel%61tion=R&tupl%65=a", "relation=R&tuple=%3Cb%3E",
	"relation=R&tuple=a&tuple=b", "relation=R&tuple=", "relation=R&tuple", "relation=R&tuple=&tuple=",
	"&&relation=R&&tuple=a&&", "relation=&relation=R&tuple=a", "relation=R", "tuple=a", "",
}

// TestMarginalReplyCache holds the cached point reads to a fresh render:
// over several publications, TestReadQueryReplies's queries and more
// distinct queries than the cache has slots are each read twice per epoch,
// and every reply is appendMarginal's bytes for the view of that epoch.
// The second read of a kept reply renders nothing, a query longer than
// maxCachedQuery bytes is rendered every time and never kept, and a 400 is
// never kept. Its concurrent leg is replyCacheUnderPublication.
func TestMarginalReplyCache(t *testing.T) {
	b := newFakeBackend(replyView(1))
	s := New(b, Options{})
	queries := append([]string(nil), readQueryTable...)
	for i := 0; i < replySlots+replySlots/4; i++ {
		queries = append(queries, fmt.Sprintf("relation=F&tuple=f%d", i%100)+strings.Repeat("&x", i/100))
	}
	atBound := "relation=F&tuple=f2&pad=" + strings.Repeat("p", maxCachedQuery-len("relation=F&tuple=f2&pad="))
	overBound := atBound + "p"
	queries = append(queries, atBound, overBound)
	for e := uint64(1); e <= 4; e++ {
		v := replyView(e)
		b.publish(v)
		for _, raw := range queries {
			wantCode, want := marginalRender(v, raw)
			for pass := 0; pass < 2; pass++ {
				renders := s.renders.Load()
				code, got := serveMarginal(s, raw)
				if code != wantCode || !bytes.Equal(got, want) {
					t.Fatalf("epoch %d GET ?%s pass %d: %d %s\nwant %d %s", e, raw, pass, code, got, wantCode, want)
				}
				rendered := s.renders.Load() - renders
				kept := code != http.StatusBadRequest && len(raw) <= maxCachedQuery
				if pass == 1 && kept && rendered != 0 {
					t.Fatalf("epoch %d GET ?%s: the second read rendered its reply again", e, raw)
				}
				if !kept && code != http.StatusBadRequest && rendered != 1 {
					t.Fatalf("epoch %d GET ?%s pass %d: %d renders of an uncached reply, want 1", e, raw, pass, rendered)
				}
			}
		}
		held := cachedQueries(s)
		if !held[atBound] {
			t.Errorf("epoch %d: the reply to a query of %d bytes was not kept", e, len(atBound))
		}
		for raw := range held {
			if len(raw) > maxCachedQuery {
				t.Errorf("epoch %d: kept the reply to a query of %d bytes", e, len(raw))
			}
			if code, _ := marginalRender(v, raw); code == http.StatusBadRequest {
				t.Errorf("epoch %d: kept the 400 to ?%s", e, raw)
			}
		}
	}
	t.Run("under publication", replyCacheUnderPublication)
}

// TestMarginalReplyCollision: two raw queries hashing to one slot under
// the server's replySeed, read in turn within one epoch, are each rendered
// once. A direct-mapped slot made each evict the other on every read. A
// third query of the same bucket evicts one of them, and at the next epoch
// the two are each rendered once again.
func TestMarginalReplyCollision(t *testing.T) {
	b := newFakeBackend(replyView(1))
	s := New(b, Options{})
	slotOf := func(raw string) uint64 { return maphash.String(s.replySeed, raw) % replySlots }
	var colliding []string // three raw queries: two of one slot, then one of its bucket
	seen := map[uint64]string{}
	for i := 0; len(colliding) < 2; i++ {
		raw := fmt.Sprintf("relation=F&tuple=f%d&n=%d", 2*(i%50), i)
		if other, ok := seen[slotOf(raw)]; ok {
			colliding = []string{other, raw}
		}
		seen[slotOf(raw)] = raw
	}
	for i := 0; len(colliding) < 3; i++ {
		if raw := fmt.Sprintf("relation=F&tuple=f4&m=%d", i); slotOf(raw)^1 == slotOf(colliding[0]) {
			colliding = append(colliding, raw)
		}
	}
	read := func(v *fakeView, raw string) uint64 {
		t.Helper()
		renders := s.renders.Load()
		wantCode, want := marginalRender(v, raw)
		if code, got := serveMarginal(s, raw); code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("epoch %d GET ?%s: %d %s\nwant %d %s", v.epoch, raw, code, got, wantCode, want)
		}
		return s.renders.Load() - renders
	}
	for e := uint64(1); e <= 3; e++ {
		v := replyView(e)
		b.publish(v)
		rendered := uint64(0)
		for pass := 0; pass < 10; pass++ {
			rendered += read(v, colliding[0]) + read(v, colliding[1])
		}
		if rendered != 2 {
			t.Fatalf("epoch %d: %d renders of two colliding queries read in turn 10 times each, want 2", e, rendered)
		}
		// The bucket holds two current replies: a third query's reply
		// evicts one of them, which is then rendered once more.
		if n := read(v, colliding[2]) + read(v, colliding[2]); n != 1 {
			t.Fatalf("epoch %d: a third query of the bucket rendered %d times in two reads, want 1", e, n)
		}
		if n := read(v, colliding[0]) + read(v, colliding[1]); n != 1 {
			t.Fatalf("epoch %d: after a third query of the bucket, the two colliding ones rendered %d times, want 1", e, n)
		}
	}
}

// replyCacheUnderPublication races point readers against a writer
// publishing a new view in a loop: every reply is of a view current while
// it was served, and the render of the view its epoch names, never a reply
// kept for another epoch.
func replyCacheUnderPublication(t *testing.T) {
	const publications, readers = 100, 4
	b := newFakeBackend(replyView(1))
	s := New(b, Options{})
	queries := append([]string{"relation=F&tuple=f4", "relation=F&tuple=f5"}, readQueryTable[:4]...)
	views := make([]*fakeView, publications+2)
	want := make([]map[string][]byte, publications+2)
	for e := range views {
		views[e] = replyView(uint64(e))
		want[e] = make(map[string][]byte)
		for _, raw := range queries {
			_, want[e][raw] = marginalRender(views[e], raw)
		}
	}

	done := make(chan struct{})
	errs := make(chan error, readers)
	var served atomic.Int64 // replies checked, for pacing the writer
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				raw := queries[i%len(queries)]
				lo := b.View().Epoch()
				_, got := serveMarginal(s, raw)
				hi := b.View().Epoch()
				var body struct {
					Epoch uint64 `json:"epoch"`
				}
				if err := json.Unmarshal(got, &body); err != nil {
					errs <- err
					return
				}
				if body.Epoch < lo || body.Epoch > hi {
					errs <- fmt.Errorf("?%s: served epoch %d, published around the request: %d to %d", raw, body.Epoch, lo, hi)
					return
				}
				if !bytes.Equal(got, want[body.Epoch][raw]) {
					errs <- fmt.Errorf("epoch %d ?%s: got %s\nwant %s", body.Epoch, raw, got, want[body.Epoch][raw])
					return
				}
				served.Add(1)
			}
		}(r)
	}
	// Each view is up for several replies per query, so readers hit the
	// replies kept for it and straddle publications.
	for e := 2; e <= publications+1 && len(errs) == 0; e++ {
		for target := served.Load() + 4*readers; served.Load() < target && len(errs) == 0; {
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

// FuzzMarginalReplies serves a random raw query twice (a miss, then a hit)
// at each of two epochs: every reply is the fresh render's bytes, and the
// second read of a reply the cache keeps renders nothing. One server takes
// every input, each at epochs of its own, so what earlier inputs left in
// the cache is of older epochs and must miss.
func FuzzMarginalReplies(f *testing.F) {
	for _, raw := range readQueryTable {
		f.Add(raw)
	}
	f.Add("relation=F&tuple=f4")
	f.Add("relation=F&tuple=f4&tuple=")
	f.Add("relation=F&tuple=f" + strings.Repeat("0", maxCachedQuery))
	rels := []map[string][]Fact{replyView(1).rels, replyView(2).rels}
	b := newFakeBackend(replyView(0))
	s := New(b, Options{})
	epoch := uint64(0)
	f.Fuzz(func(t *testing.T, raw string) {
		for _, r := range rels {
			epoch++
			v := &fakeView{epoch: epoch, rels: r}
			b.publish(v)
			wantCode, want := marginalRender(v, raw)
			for pass := 0; pass < 2; pass++ {
				renders := s.renders.Load()
				code, got := serveMarginal(s, raw)
				if code != wantCode || !bytes.Equal(got, want) {
					t.Fatalf("epoch %d ?%q pass %d: %d %s\nwant %d %s", epoch, raw, pass, code, got, wantCode, want)
				}
				if pass == 1 && code != http.StatusBadRequest && len(raw) <= maxCachedQuery && s.renders.Load() != renders {
					t.Fatalf("epoch %d ?%q: the second read rendered its reply again", epoch, raw)
				}
			}
		}
	})
}
