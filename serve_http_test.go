package deepdive_test

// Wire-level tests of the HTTP serving tier over a live KB: endpoint
// round-trips, read replies byte for byte, concurrent readers and
// subscribers against the update queue (run under -race by the race-serve
// CI job), and a stalled raw-TCP subscriber that must not delay
// publications.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepdive"
	"deepdive/internal/serve"
)

// serveKB starts the HTTP tier over kb on a loopback port.
func serveKB(t *testing.T, kb *deepdive.KB, o deepdive.ServeOptions) *deepdive.KBServer {
	t.Helper()
	srv, err := kb.Serve(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// wireDocUpdate is docUpdate(i) in the POST /v1/update wire shape.
func wireDocUpdate(i int) string {
	sid := fmt.Sprintf("sx%d", i)
	return fmt.Sprintf(`{"inserts": {
		"Sentence": [["%s", "Pat and his wife Sam"]],
		"PersonMention": [["p%da", "%s", "Pat%s"], ["p%db", "%s", "Sam%s"]]
	}}`, sid, i, sid, sid, i, sid, sid)
}

func postUpdate(t *testing.T, base, body string, wait bool) (int, map[string]any) {
	t.Helper()
	url := base + "/v1/update"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST update: %v", err)
	}
	return resp.StatusCode, out
}

// TestServeHTTPEndToEnd drives every endpoint against a live spouse KB:
// point and bulk reads off the snapshot, a waited update through the
// coalescing queue (epoch advances, strategy reported), and the stats
// and autopilot surfaces.
func TestServeHTTPEndToEnd(t *testing.T) {
	kb := spouseKB(t)
	t.Cleanup(func() { kb.Close() })
	srv := serveKB(t, kb, deepdive.ServeOptions{})
	base := "http://" + srv.Addr()

	e0 := kb.Snapshot().Epoch()
	code, body := getJSON(t, base+"/v1/health")
	if code != 200 || body["status"] != "ok" || uint64(body["epoch"].(float64)) != e0 {
		t.Fatalf("health: %d %v (kb epoch %d)", code, body, e0)
	}

	wantP, ok := kb.Snapshot().Marginal("HasSpouse", deepdive.Tuple{"a", "b"})
	if !ok {
		t.Fatal("fixture lost its (a,b) candidate")
	}
	code, body = getJSON(t, base+"/v1/marginal?relation=HasSpouse&tuple=a&tuple=b")
	if code != 200 || body["probability"].(float64) != wantP {
		t.Fatalf("marginal: %d %v, want p=%v", code, body, wantP)
	}

	code, body = getJSON(t, base+"/v1/facts?relation=HasSpouse")
	nc := len(kb.Snapshot().Candidates("HasSpouse"))
	if code != 200 || len(body["facts"].([]any)) != nc {
		t.Fatalf("facts: %d %d facts, want %d", code, len(body["facts"].([]any)), nc)
	}

	code, res := postUpdate(t, base, wireDocUpdate(1), true)
	if code != 200 {
		t.Fatalf("update: %d %v", code, res)
	}
	if e := uint64(res["epoch"].(float64)); e <= e0 {
		t.Fatalf("update epoch %d did not advance past %d", e, e0)
	}
	if s := res["strategy"].(string); s == "" {
		t.Fatal("update result missing strategy")
	}
	if res["coalesced"].(float64) < 1 {
		t.Fatalf("coalesced = %v", res["coalesced"])
	}
	// "Why was that update slow" is in the reply: an unsupervised document
	// taught nothing and dirtied its own two candidates.
	if res["scope_vars"].(float64) != 0 || res["learned_weights"].(float64) != 0 || res["dirty_vars"].(float64) != 2 {
		t.Fatalf("finish-stage scope in the reply: %v", res)
	}

	// The new document's candidate pair is now served.
	code, body = getJSON(t, base+"/v1/marginal?relation=HasSpouse&tuple=p1a&tuple=p1b")
	if code != 200 || body["known"] != true {
		t.Fatalf("new fact after update: %d %v", code, body)
	}

	code, body = getJSON(t, base+"/v1/stats")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if q := body["queue"].(map[string]any); q["applied"].(float64) < 1 {
		t.Fatalf("queue stats: %v", q)
	}
	// "Why was that materialization slow" is on the wire: how Learn, Infer
	// and Materialize came by their result — here without a sweep.
	for _, pass := range []string{"Learned", "Inferred", "Materialized"} {
		n, _ := body["graph"].(map[string]any)[pass].(map[string]any)
		if n == nil || n["Swept"].(float64) != 0 || n["Closed"].(float64)+n["Enumerated"].(float64) == 0 || n["Largest"].(float64) < 1 {
			t.Fatalf("stats: graph.%s = %v", pass, n)
		}
	}
	code, body = getJSON(t, base+"/v1/autopilot")
	if code != 200 || body["autopilot"] == nil {
		t.Fatalf("autopilot: %d %v", code, body)
	}

	code, res = postUpdate(t, base, `{"inserts": {"Nope": [["x"]]}}`, true)
	if code != 409 {
		t.Fatalf("bad-relation update: %d %v, want 409", code, res)
	}
}

// sseEvents streams parsed SSE (event, data) pairs from an open
// subscription into a channel; the channel closes when the stream does.
func sseEvents(resp *http.Response) <-chan [2]string {
	out := make(chan [2]string, 64)
	go func() {
		defer close(out)
		rd := bufio.NewReader(resp.Body)
		var name, data string
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && name != "":
				out <- [2]string{name, data}
				name, data = "", ""
			}
		}
	}()
	return out
}

// getBytes is one GET's status and raw body.
func getBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// encodeReply is a reply map as encoding/json writes it: the bytes the
// read endpoints have always sent.
func encodeReply(t *testing.T, body map[string]any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeHTTPFactsBytes pins /v1/facts and /v1/marginal over a live KB
// to the encoder's bytes for the snapshot they serve — every relation,
// thresholds on and between the probabilities, tuples the encoder escapes,
// evidence true and false — on the scan that renders a table, the scan
// that copies it, and after updates publish new snapshots.
func TestServeHTTPFactsBytes(t *testing.T) {
	kb, err := deepdive.OpenKB(`
@variable Q(x, k).
@relation Q_Ev(x, k, label).
@relation R(x, k).
Cand: Q(x, k) :- R(x, k).
F: Q(x, k) :- R(x, k) weight = w(k).
`, deepdive.WithSeed(7))
	must(t, err)
	t.Cleanup(func() { kb.Close() })
	must(t, kb.Load("R", []deepdive.Tuple{{"<b>", "k1"}, {"a&b", "k1"}, {"Zoë", "k1"}, {"e", "k2"}, {"f", "k2"}}))
	must(t, kb.Load("Q_Ev", []deepdive.Tuple{{"<b>", "k1", "true"}}))
	must(t, kb.Init(ctx))
	_, err = kb.Learn(ctx)
	must(t, err)
	_, err = kb.Infer(ctx)
	must(t, err)
	_, err = kb.Materialize(ctx)
	must(t, err)
	srv := serveKB(t, kb, deepdive.ServeOptions{})
	base := "http://" + srv.Addr()

	check := func() []byte {
		t.Helper()
		snap := kb.Snapshot()
		var all []byte
		for _, rel := range append(snap.Relations(), "NoSuchRelation") {
			for _, th := range []string{"", "0", "0.1", "0.5", "1"} {
				thv, _ := strconv.ParseFloat(th, 64)
				var facts []serve.Fact
				for _, f := range snap.Facts(rel) {
					if th == "" || f.Known && f.Probability > thv {
						facts = append(facts, serve.Fact{Tuple: f.Tuple, Probability: f.Probability, Known: f.Known, Evidence: f.Evidence})
					}
				}
				if facts == nil {
					facts = []serve.Fact{}
				}
				want := encodeReply(t, map[string]any{"relation": rel, "epoch": snap.Epoch(), "facts": facts})
				q := url.Values{"relation": {rel}}
				if th != "" {
					q.Set("threshold", th)
				}
				for pass := 0; pass < 2; pass++ {
					code, got := getBytes(t, base+"/v1/facts?"+q.Encode())
					if code != 200 || !bytes.Equal(got, want) {
						t.Fatalf("epoch %d %s: %d\n got %s\nwant %s", snap.Epoch(), q.Encode(), code, got, want)
					}
				}
				if th == "" {
					all = append(all, want...)
				}
			}
		}
		for _, tuple := range [][]string{{"<b>", "k1"}, {"Zoë", "k1"}, {"e", "k2"}, {"no", "such"}} {
			want := map[string]any{"relation": "Q", "tuple": tuple, "known": false, "epoch": snap.Epoch()}
			wantCode := 404
			if p, ok := snap.Marginal("Q", deepdive.Tuple(tuple)); ok {
				want["known"], want["probability"], wantCode = true, p, 200
			}
			q := url.Values{"relation": {"Q"}, "tuple": tuple}
			code, got := getBytes(t, base+"/v1/marginal?"+q.Encode())
			if code != wantCode || !bytes.Equal(got, encodeReply(t, want)) {
				t.Fatalf("epoch %d marginal %q: %d\n got %s\nwant %s", snap.Epoch(), tuple, code, got, encodeReply(t, want))
			}
		}
		return all
	}
	before := check()

	// A false label pins (e, k2) at probability 0 and moves the weight
	// (f, k2) shares with it; a new fact joins Q.
	code, res := postUpdate(t, base, `{"inserts": {
		"Q_Ev": [["e", "k2", "false"]],
		"R": [["日本", "k1"]]
	}}`, true)
	if code != 200 {
		t.Fatalf("update: %d %v", code, res)
	}
	if p, ok := kb.Snapshot().Marginal("Q", deepdive.Tuple{"e", "k2"}); !ok || p != 0 {
		t.Fatalf("(e, k2) after a false label: p = %v, known %v; want a known 0", p, ok)
	}
	after := check()
	if bytes.Equal(before, after) {
		t.Fatal("an update changed no /v1/facts body")
	}
	if code, res = postUpdate(t, base, `{"inserts": {"Q_Ev": [["Zoë", "k1", "true"]]}}`, true); code != 200 {
		t.Fatalf("update: %d %v", code, res)
	}
	if bytes.Equal(after, check()) {
		t.Fatal("an update changed no /v1/facts body")
	}
}

// TestServeHTTPConcurrent is the wire-level counterpart of
// TestSnapshotConcurrentReaders, built to run under -race: HTTP readers
// and SSE subscribers hammer the serving tier with zero coordination
// while a writer streams updates through the pipelined queue and a
// deliberately stalled raw-TCP subscriber holds a dead socket open the
// whole time. Pins per-reader and per-subscriber epoch monotonicity and
// that every subscriber observes the final epoch — i.e. the stalled
// client delayed nobody.
func TestServeHTTPConcurrent(t *testing.T) {
	kb := spouseKB(t)
	t.Cleanup(func() { kb.Close() })
	srv := serveKB(t, kb, deepdive.ServeOptions{Options: serve.Options{
		WriteTimeout: 500 * time.Millisecond,
		Heartbeat:    50 * time.Millisecond,
	}})
	base := "http://" + srv.Addr()

	// Stalled subscriber: full request, never reads a byte of response.
	stalled, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	fmt.Fprintf(stalled, "GET /v1/subscribe HTTP/1.1\r\nHost: x\r\n\r\n")

	const updates = 5
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Readers: epoch from /v1/facts must be monotone per reader.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(base + "/v1/facts?relation=HasSpouse")
				if err != nil {
					errs <- err
					return
				}
				var body struct {
					Epoch uint64 `json:"epoch"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if body.Epoch < last {
					errs <- fmt.Errorf("reader epoch went backwards: %d then %d", last, body.Epoch)
					return
				}
				last = body.Epoch
			}
		}()
	}

	// Subscribers: epochs strictly increase along each stream; each
	// publishes its latest observed epoch through an atomic the main
	// goroutine polls.
	var subEpochs [2]atomic.Uint64
	var subBodies []func() error
	for s := 0; s < 2; s++ {
		resp, err := http.Get(base + "/v1/subscribe?relation=HasSpouse")
		if err != nil {
			t.Fatal(err)
		}
		subBodies = append(subBodies, resp.Body.Close)
		events := sseEvents(resp)
		mine := &subEpochs[s]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for ev := range events {
				var payload struct {
					Epoch uint64 `json:"epoch"`
				}
				if err := json.Unmarshal([]byte(ev[1]), &payload); err != nil {
					errs <- err
					return
				}
				if payload.Epoch <= last && ev[0] == "delta" {
					errs <- fmt.Errorf("subscriber epoch %d after %d", payload.Epoch, last)
					return
				}
				last = payload.Epoch
				mine.Store(last)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	// Writer: sequential waited updates through the queue.
	var lastEpoch uint64
	for i := 0; i < updates; i++ {
		code, res := postUpdate(t, base, wireDocUpdate(100+i), true)
		if code != 200 {
			t.Fatalf("update %d: %d %v", i, code, res)
		}
		lastEpoch = uint64(res["epoch"].(float64))
	}

	// Every subscriber must reach the final epoch — a stalled peer cannot
	// hold them back.
	deadline := time.Now().Add(10 * time.Second)
	for {
		reached := 0
		for i := range subEpochs {
			if subEpochs[i].Load() >= lastEpoch {
				reached++
			}
		}
		if reached == len(subEpochs) {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscribers never reached epoch %d (%d/%d)", lastEpoch, reached, len(subEpochs))
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(done)
	// Closing the SSE bodies ends each subscriber's event range; without
	// this the streams stay open (no further events arrive) and wg.Wait
	// deadlocks against the t.Cleanup-ordered closes.
	for _, closeBody := range subBodies {
		closeBody()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestServeHTTPRejectsMalformedTuples: the wire twin of
// TestQueueRejectsMalformedTuples — a body whose tuple has the wrong arity
// (or a reserved byte, or deletes what is not there) is a 400 with code
// invalid_tuple, not a dead process, and the server keeps taking updates.
func TestServeHTTPRejectsMalformedTuples(t *testing.T) {
	kb := spouseKB(t)
	defer kb.Close()
	base := "http://" + serveKB(t, kb, deepdive.ServeOptions{}).Addr()
	for _, body := range []string{
		`{"inserts": {"Sentence": [["one-column"]]}}`,
		`{"inserts": {"Sentence": [["s9", "split\u001fhere"]]}}`,
		`{"deletes": {"Married": [["Nobody", "Noone"]]}}`,
	} {
		code, out := postUpdate(t, base, body, true)
		if code != http.StatusBadRequest || out["code"] != "invalid_tuple" {
			t.Fatalf("POST %s: %d %v, want 400 invalid_tuple", body, code, out)
		}
	}
	if code, out := postUpdate(t, base, wireDocUpdate(1), true); code != http.StatusOK {
		t.Fatalf("the update after the refusals: %d %v", code, out)
	}
	if code, out := getJSON(t, base+"/v1/health"); code != http.StatusOK || out["state"] != "healthy" {
		t.Fatalf("health after the refusals: %d %v", code, out)
	}
}

// FuzzServeUpdateBody throws arbitrary bodies at POST /v1/update?wait=1 on
// a live KB: whatever arrives, the handler answers (200, 400, 409 or 413,
// never a panic, never a 5xx) and the queue stays able to apply a
// well-formed update afterwards.
func FuzzServeUpdateBody(f *testing.F) {
	f.Add(`{"inserts": {"Sentence": [["one-column"]]}}`)
	f.Add(`{"inserts": {"Sentence": [["s9", "split\u001fhere"]]}}`)
	f.Add(`{"deletes": {"Married": [["Alan", "Beth"], ["Alan", "Beth"]]}}`)
	f.Add(`{"inserts": {"NoSuchRelation": [["x"]]}}`)
	f.Add(`{"rule_source": "Broken: HasSpouse(m1) :- ."}`)
	f.Add(wireDocUpdate(7))
	f.Add(`{"inserts": {"Sentence": [[]]}}`)
	f.Add(`[1, 2`)
	kb, err := deepdive.OpenKB(spouseSource, deepdive.WithUDF("phrase", phraseUDF), deepdive.WithSeed(7),
		deepdive.WithLearning(5, 0.3), deepdive.WithInference(10, 60), deepdive.WithMaterialization(120, 0.01))
	must(f, err)
	must(f, kb.Load("Sentence", []deepdive.Tuple{{"s1", "Alan and his wife Beth"}}))
	must(f, kb.Load("PersonMention", []deepdive.Tuple{{"a", "s1", "Alan"}, {"b", "s1", "Beth"}}))
	must(f, kb.Load("Married", []deepdive.Tuple{{"Alan", "Beth"}}))
	must(f, kb.Init(ctx))
	for _, stage := range []func(context.Context) (time.Duration, error){kb.Learn, kb.Infer, kb.Materialize} {
		_, err := stage(ctx)
		must(f, err)
	}
	srv, err := kb.Serve(ctx, deepdive.ServeOptions{})
	must(f, err)
	f.Cleanup(func() { srv.Shutdown(ctx); kb.CloseNow() })
	n := 0
	f.Fuzz(func(t *testing.T, body string) {
		resp, err := http.Post("http://"+srv.Addr()+"/v1/update?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %q: %v", body, err)
		}
		resp.Body.Close()
		if c := resp.StatusCode; c != 200 && c != 400 && c != 409 && c != 413 {
			t.Fatalf("POST %q: status %d", body, c)
		}
		n++
		probe := docUpdate(1000 + n)
		if _, err := kb.Updates().Submit(probe).Wait(ctx); err != nil {
			t.Fatalf("after POST %q the queue refuses a document: %v", body, err)
		}
		_, err = kb.Updates().Submit(deepdive.Update{Deletes: probe.Inserts}).Wait(ctx)
		must(t, err)
	})
}
