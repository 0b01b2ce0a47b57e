package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeView is an immutable View for handler tests.
type fakeView struct {
	epoch uint64
	rels  map[string][]Fact
}

func (v *fakeView) Epoch() uint64 { return v.epoch }
func (v *fakeView) Relations() []string {
	out := make([]string, 0, len(v.rels))
	for name := range v.rels {
		out = append(out, name)
	}
	return out
}
func (v *fakeView) Facts(rel string) []Fact { return v.rels[rel] }
func (v *fakeView) Marginal(rel string, tuple []string) (float64, bool) {
	k := factKey(tuple)
	for _, f := range v.rels[rel] {
		if factKey(f.Tuple) == k && f.Known {
			return f.Probability, true
		}
	}
	return 0, false
}
func (v *fakeView) Stats() any { return map[string]int{"vars": 1} }

// ChangedSince: the hand-built views do not say what changed, so their
// subscribers compare every fact (hub_diff_test.go has views that do).
func (v *fakeView) ChangedSince(uint64) ([]FactChange, bool) { return nil, false }

// fakeBackend implements Backend with the same publication contract the
// KB adapter provides: Published returns a channel closed by the next
// publish call.
type fakeBackend struct {
	mu     sync.Mutex
	view   *fakeView
	pubCh  chan struct{}
	submit func(ctx context.Context, u Update, wait bool) (*UpdateResult, error)
	stats  QueueStats // zero value reported as the defaults below
	health HealthInfo // zero value reported as a healthy non-durable KB
}

func newFakeBackend(v *fakeView) *fakeBackend { return &fakeBackend{view: v} }

func (b *fakeBackend) View() View {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.view
}

func (b *fakeBackend) Published() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pubCh == nil {
		b.pubCh = make(chan struct{})
	}
	return b.pubCh
}

// publish swaps the view and wakes subscribers — the whole operation is
// a mutex-guarded pointer swap plus a channel close, exactly like the
// KB's publishStaged, so its latency is what the stalled-subscriber test
// measures.
func (b *fakeBackend) publish(v *fakeView) {
	b.mu.Lock()
	b.view = v
	if b.pubCh != nil {
		close(b.pubCh)
		b.pubCh = nil
	}
	b.mu.Unlock()
}

func (b *fakeBackend) Submit(ctx context.Context, u Update, wait bool) (*UpdateResult, error) {
	if b.submit != nil {
		return b.submit(ctx, u, wait)
	}
	if !wait {
		return nil, nil
	}
	return &UpdateResult{Epoch: b.View().Epoch() + 1, Coalesced: 1, Strategy: "sampling"}, nil
}

func (b *fakeBackend) Autopilot() any { return map[string]int{"sampling_runs": 2} }

func (b *fakeBackend) QueueStats() QueueStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stats == (QueueStats{}) {
		return QueueStats{Pending: 0, Batches: 3, Applied: 3}
	}
	return b.stats
}

func (b *fakeBackend) Health() HealthInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.health == (HealthInfo{}) {
		return HealthInfo{State: Healthy}
	}
	return b.health
}

func baseView() *fakeView {
	return &fakeView{
		epoch: 1,
		rels: map[string][]Fact{
			"HasSpouse": {
				{Tuple: []string{"Alan", "Beth"}, Probability: 0.9, Known: true},
				{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
			},
		},
	}
}

func testServer(t *testing.T, b Backend, o Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(b, o).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestReadEndpoints(t *testing.T) {
	ts := testServer(t, newFakeBackend(baseView()), Options{})

	code, body := get(t, ts.URL+"/v1/health")
	if code != 200 || body["status"] != "ok" || body["epoch"] != float64(1) {
		t.Fatalf("health: %d %v", code, body)
	}

	code, body = get(t, ts.URL+"/v1/marginal?relation=HasSpouse&tuple=Alan&tuple=Beth")
	if code != 200 || body["probability"] != 0.9 || body["known"] != true {
		t.Fatalf("marginal: %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/v1/marginal?relation=HasSpouse&tuple=No&tuple=Body")
	if code != 404 || body["known"] != false {
		t.Fatalf("unknown fact: %d %v", code, body)
	}
	if code, _ = get(t, ts.URL+"/v1/marginal?relation=HasSpouse"); code != 400 {
		t.Fatalf("tupleless marginal: %d, want 400", code)
	}
	if code, _ = get(t, ts.URL+"/v1/marginal?tuple=a"); code != 400 {
		t.Fatalf("relationless marginal: %d, want 400", code)
	}

	code, body = get(t, ts.URL+"/v1/facts?relation=HasSpouse")
	if code != 200 || len(body["facts"].([]any)) != 2 {
		t.Fatalf("facts: %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/v1/facts?relation=HasSpouse&threshold=0.5")
	if code != 200 || len(body["facts"].([]any)) != 1 {
		t.Fatalf("thresholded facts: %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/v1/facts?relation=Nothing")
	if code != 200 || len(body["facts"].([]any)) != 0 {
		t.Fatalf("empty relation: %d %v", code, body)
	}
	if code, _ = get(t, ts.URL+"/v1/facts?relation=HasSpouse&threshold=nan-ish"); code != 400 {
		t.Fatalf("bad threshold: %d, want 400", code)
	}
	// ParseFloat accepts NaN, and no probability is > NaN.
	if code, _ = get(t, ts.URL+"/v1/facts?relation=HasSpouse&threshold=NaN"); code != 400 {
		t.Fatalf("NaN threshold: %d, want 400", code)
	}
	if code, _ = get(t, ts.URL+"/v1/facts"); code != 400 {
		t.Fatalf("relationless facts: %d, want 400", code)
	}

	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 || body["queue"].(map[string]any)["batches"] != float64(3) {
		t.Fatalf("stats: %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/v1/autopilot")
	if code != 200 || body["autopilot"].(map[string]any)["sampling_runs"] != float64(2) {
		t.Fatalf("autopilot: %d %v", code, body)
	}

	// A point read repeated at the same epoch is answered from the reply
	// kept for it: of the five point reads, the 200 and the 404 rendered a
	// reply, and the two 400s render none.
	if code, _ = get(t, ts.URL+"/v1/marginal?relation=HasSpouse&tuple=Alan&tuple=Beth"); code != 200 {
		t.Fatalf("repeated marginal: %d", code)
	}
	code, body = get(t, ts.URL+"/v1/stats")
	serving := body["serving"].(map[string]any)
	if code != 200 || serving["marginal_renders"] != float64(2) || serving["reads"] != float64(11) {
		t.Fatalf("stats serving block: %d %v, want marginal_renders 2 of reads 11", code, serving)
	}
}

// TestUpdateValidation pins the 400 surface of POST /v1/update: the
// handler must reject malformed bodies before anything reaches the
// queue.
func TestUpdateValidation(t *testing.T) {
	submitted := 0
	b := newFakeBackend(baseView())
	b.submit = func(ctx context.Context, u Update, wait bool) (*UpdateResult, error) {
		submitted++
		return &UpdateResult{Epoch: 2}, nil
	}
	ts := testServer(t, b, Options{})

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/update?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	bad := []string{
		`{`,                        // truncated JSON
		`[]`,                       // wrong shape
		`{"bogus_field": 1}`,       // unknown field
		`{}`,                       // empty update
		`{"inserts": {}}`,          // still empty
		`{"inserts": {"R": [[]]}}`, // empty tuple
		`{"deletes": {"R": [[]]}}`, // empty tuple on the delete side
	}
	for _, body := range bad {
		if code := post(body); code != 400 {
			t.Errorf("POST %q: %d, want 400", body, code)
		}
	}
	if submitted != 0 {
		t.Fatalf("malformed bodies reached Submit %d times", submitted)
	}

	if code := post(`{"inserts": {"Sentence": [["s9", "Pat and his wife Sam"]]}}`); code != 200 {
		t.Fatalf("valid update: %d, want 200", code)
	}
	if submitted != 1 {
		t.Fatalf("valid update submitted %d times, want 1", submitted)
	}

	// Without wait the handler acknowledges with 202.
	resp, err := http.Post(ts.URL+"/v1/update", "application/json",
		strings.NewReader(`{"rule_source": "R(x) :- S(x)."}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("no-wait update: %d, want 202", resp.StatusCode)
	}

	// GET on a POST-only route is a method error, not a handler panic.
	resp, err = http.Get(ts.URL + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /v1/update: %d, want 405", resp.StatusCode)
	}
}

// TestUpdateContextCancellation pins that a client disconnecting mid
// ?wait=1 cancels the request context handed to Submit — the wire-level
// form of the queue's retract-on-cancel contract.
func TestUpdateContextCancellation(t *testing.T) {
	b := newFakeBackend(baseView())
	observed := make(chan error, 1)
	entered := make(chan struct{})
	b.submit = func(ctx context.Context, u Update, wait bool) (*UpdateResult, error) {
		close(entered)
		<-ctx.Done()
		observed <- ctx.Err()
		return nil, ctx.Err()
	}
	ts := testServer(t, b, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/update?wait=1",
		strings.NewReader(`{"inserts": {"R": [["a"]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit never entered")
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request succeeded despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request did not return after cancel")
	}
	select {
	case err := <-observed:
		if err != context.Canceled {
			t.Fatalf("Submit ctx error = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit ctx never cancelled")
	}
}

// sseClient reads one SSE stream event by event.
type sseClient struct {
	resp *http.Response
	rd   *bufio.Reader
}

func dialSSE(t *testing.T, url string) *sseClient {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		t.Fatalf("subscribe: %d", resp.StatusCode)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return &sseClient{resp: resp, rd: bufio.NewReader(resp.Body)}
}

// next returns the next non-comment event's (name, data). It fails the
// test after a 5s stall.
func (c *sseClient) next(t *testing.T) (string, string) {
	t.Helper()
	type ev struct {
		name, data string
		err        error
	}
	out := make(chan ev, 1)
	go func() {
		var name, data string
		for {
			line, err := c.rd.ReadString('\n')
			if err != nil {
				out <- ev{err: err}
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && name != "":
				out <- ev{name: name, data: data}
				return
			}
		}
	}()
	select {
	case e := <-out:
		if e.err != nil {
			t.Fatalf("subscription stream: %v", e.err)
		}
		return e.name, e.data
	case <-time.After(5 * time.Second):
		t.Fatal("no subscription event within 5s")
		return "", ""
	}
}

func (c *sseClient) nextDelta(t *testing.T) deltaEvent {
	t.Helper()
	name, data := c.next(t)
	if name != "delta" {
		t.Fatalf("event %q, want delta (data %s)", name, data)
	}
	var ev deltaEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestSubscribeStream pins the subscription protocol: initial snapshot,
// per-publication deltas with correct per-fact movements, removal
// events, coalesced-epoch skip accounting, and per-subscriber epoch
// monotonicity.
func TestSubscribeStream(t *testing.T) {
	b := newFakeBackend(baseView())
	ts := testServer(t, b, Options{Heartbeat: time.Hour})
	c := dialSSE(t, ts.URL+"/v1/subscribe?relation=HasSpouse")

	name, data := c.next(t)
	if name != "snapshot" {
		t.Fatalf("first event %q, want snapshot", name)
	}
	var snap snapshotEvent
	if err := json.Unmarshal([]byte(data), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 || len(snap.Facts["HasSpouse"]) != 2 {
		t.Fatalf("snapshot event: %+v", snap)
	}

	// One fact moves, one appears.
	b.publish(&fakeView{epoch: 2, rels: map[string][]Fact{
		"HasSpouse": {
			{Tuple: []string{"Alan", "Beth"}, Probability: 0.95, Known: true},
			{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
			{Tuple: []string{"Carl", "Dana"}, Probability: 0.8, Known: true},
		},
	}})
	ev := c.nextDelta(t)
	if ev.Epoch != 2 || ev.Skipped != 0 || len(ev.Changes) != 2 {
		t.Fatalf("delta: %+v", ev)
	}
	byTuple := map[string]Change{}
	for _, ch := range ev.Changes {
		byTuple[factKey(ch.Tuple)] = ch
	}
	if ch := byTuple[factKey([]string{"Alan", "Beth"})]; ch.Probability != 0.95 || abs(ch.Delta-0.05) > 1e-12 {
		t.Fatalf("moved fact: %+v", ch)
	}
	if ch := byTuple[factKey([]string{"Carl", "Dana"})]; ch.Probability != 0.8 || ch.Delta != 0 {
		t.Fatalf("appeared fact: %+v", ch)
	}

	// An epoch jump (the fake's stand-in for publications raced past a
	// slow consumer) is reported as skipped, and a removal closes out the
	// retracted fact.
	b.publish(&fakeView{epoch: 4, rels: map[string][]Fact{
		"HasSpouse": {
			{Tuple: []string{"Alan", "Beth"}, Probability: 0.95, Known: true},
			{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
		},
	}})
	ev = c.nextDelta(t)
	if ev.Epoch != 4 || ev.Skipped != 1 || len(ev.Changes) != 1 {
		t.Fatalf("removal delta: %+v", ev)
	}
	if ch := ev.Changes[0]; !ch.Removed || factKey(ch.Tuple) != factKey([]string{"Carl", "Dana"}) || abs(ch.Delta+0.8) > 1e-12 {
		t.Fatalf("removal change: %+v", ch)
	}
}

// TestSubscribeHeartbeat pins the keep-alive bytes of an idle stream:
// after the snapshot event, nothing is published, and every Heartbeat the
// stream writes the SSE comment ": hb" and a blank line — no event, no id.
func TestSubscribeHeartbeat(t *testing.T) {
	b := newFakeBackend(baseView())
	ts := testServer(t, b, Options{Heartbeat: 20 * time.Millisecond})
	c := dialSSE(t, ts.URL+"/v1/subscribe")
	if name, _ := c.next(t); name != "snapshot" {
		t.Fatalf("first event %q, want snapshot", name)
	}
	for i := 0; i < 3; i++ {
		if frame := readFrame(t, c.rd); frame != ": hb\n\n" {
			t.Fatalf("idle frame %d: %q, want %q", i, frame, ": hb\n\n")
		}
	}
}

// TestSubscribeMinDelta pins the min_delta floor AND its accumulation
// semantics: sub-floor movements are suppressed but not forgotten — the
// diff runs against last-SENT state, so drift crossing the floor across
// several publications is eventually reported with the full movement.
func TestSubscribeMinDelta(t *testing.T) {
	b := newFakeBackend(baseView())
	ts := testServer(t, b, Options{Heartbeat: time.Hour})
	c := dialSSE(t, ts.URL+"/v1/subscribe?relation=HasSpouse&min_delta=0.05")
	if name, _ := c.next(t); name != "snapshot" {
		t.Fatal("no snapshot event")
	}

	pub := func(epoch uint64, p float64) {
		b.publish(&fakeView{epoch: epoch, rels: map[string][]Fact{
			"HasSpouse": {
				{Tuple: []string{"Alan", "Beth"}, Probability: p, Known: true},
				{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
			},
		}})
	}
	pub(2, 0.92) // +0.02: below floor, suppressed
	pub(3, 0.94) // +0.04 cumulative: still below
	pub(4, 0.96) // +0.06 cumulative: crosses the floor
	ev := c.nextDelta(t)
	if ev.Epoch != 4 || len(ev.Changes) != 1 {
		t.Fatalf("accumulated delta: %+v", ev)
	}
	if ch := ev.Changes[0]; abs(ch.Delta-0.06) > 1e-9 || ch.Probability != 0.96 {
		t.Fatalf("accumulated change: %+v (want the full 0.06 movement)", ch)
	}
	// Note: epochs 2 and 3 produced no event at all — Skipped on the
	// epoch-4 event counts them as coalesced.
	if ev.Skipped != 2 {
		t.Fatalf("skipped = %d, want 2 (suppressed epochs)", ev.Skipped)
	}

	if code, _ := get(t, ts.URL+"/v1/subscribe?min_delta=-1"); code != 400 {
		t.Fatalf("negative min_delta: %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/subscribe?min_delta=NaN"); code != 400 {
		t.Fatalf("NaN min_delta: %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/subscribe?tuple=a"); code != 400 {
		t.Fatalf("tuple filter without relation: %d, want 400", code)
	}
}

// TestSubscribeEmptyPublication: a publication that moves none of the
// subscriber's facts still reaches it — a delta with no changes — so the
// subscriber holds the epoch of an acked update that changed nothing it
// tracks. Only a movement kept back by the min_delta floor sends nothing,
// and the next written event counts those epochs as skipped.
func TestSubscribeEmptyPublication(t *testing.T) {
	b := newFakeBackend(baseView())
	ts := testServer(t, b, Options{Heartbeat: time.Hour})
	c := dialSSE(t, ts.URL+"/v1/subscribe?relation=HasSpouse&min_delta=0.05")
	if name, _ := c.next(t); name != "snapshot" {
		t.Fatal("no snapshot event")
	}
	pub := func(epoch uint64, p float64) {
		b.publish(&fakeView{epoch: epoch, rels: map[string][]Fact{
			"HasSpouse": {
				{Tuple: []string{"Alan", "Beth"}, Probability: p, Known: true},
				{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
			},
			"Other": {{Tuple: []string{"x"}, Probability: float64(epoch) / 10, Known: true}},
		}})
	}
	pub(2, 0.9) // the served view is unchanged for this subscriber
	name, data := c.next(t)
	var ev deltaEvent
	if name != "delta" || json.Unmarshal([]byte(data), &ev) != nil || ev.Epoch != 2 || ev.Skipped != 0 || !strings.Contains(data, `"changes":[]`) {
		t.Fatalf("unchanged publication: event %q %s, want a delta at epoch 2 with \"changes\":[]", name, data)
	}
	pub(3, 0.9) // and again: one event per publication observed
	if ev = c.nextDelta(t); ev.Epoch != 3 || len(ev.Changes) != 0 || ev.Skipped != 0 {
		t.Fatalf("second unchanged publication: %+v", ev)
	}
	pub(4, 0.93) // below the floor: nothing is written
	pub(5, 0.93) // nothing moved, but the drift of epoch 4 is still kept back
	pub(6, 0.97) // clears the floor
	if ev = c.nextDelta(t); ev.Epoch != 6 || len(ev.Changes) != 1 || ev.Skipped != 2 || abs(ev.Changes[0].Delta-0.07) > 1e-9 {
		t.Fatalf("after a kept-back movement: %+v, want epoch 6 with the full 0.07 and 2 skipped", ev)
	}
}

// TestSubscribeFactFilter pins the single-fact subscription: only the
// named tuple's movements are pushed.
func TestSubscribeFactFilter(t *testing.T) {
	b := newFakeBackend(baseView())
	ts := testServer(t, b, Options{Heartbeat: time.Hour})
	c := dialSSE(t, ts.URL+"/v1/subscribe?relation=HasSpouse&tuple=Alan&tuple=Beth")
	name, data := c.next(t)
	var snap snapshotEvent
	if name != "snapshot" || json.Unmarshal([]byte(data), &snap) != nil || len(snap.Facts["HasSpouse"]) != 1 {
		t.Fatalf("filtered snapshot: %s %s", name, data)
	}

	// The other fact moves a lot, the tracked one a little.
	b.publish(&fakeView{epoch: 2, rels: map[string][]Fact{
		"HasSpouse": {
			{Tuple: []string{"Alan", "Beth"}, Probability: 0.91, Known: true},
			{Tuple: []string{"Eve", "Frank"}, Probability: 0.99, Known: true},
		},
	}})
	ev := c.nextDelta(t)
	if len(ev.Changes) != 1 || factKey(ev.Changes[0].Tuple) != factKey([]string{"Alan", "Beth"}) {
		t.Fatalf("fact filter leaked: %+v", ev)
	}
}

// TestMaxSubscribers pins the 503 cap.
func TestMaxSubscribers(t *testing.T) {
	b := newFakeBackend(baseView())
	ts := testServer(t, b, Options{MaxSubscribers: 1, Heartbeat: time.Hour})
	c := dialSSE(t, ts.URL+"/v1/subscribe")
	c.next(t) // snapshot received: the slot is held
	resp, err := http.Get(ts.URL + "/v1/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("over-cap subscribe: %d, want 503", resp.StatusCode)
	}
}

// TestStalledSubscriberDoesNotBlockPublish is the tentpole's liveness
// pin: a subscriber that never reads its socket cannot delay a
// publication, and a healthy subscriber on the same server keeps
// receiving every delta while the stalled one is eventually dropped by
// the write deadline.
func TestStalledSubscriberDoesNotBlockPublish(t *testing.T) {
	b := newFakeBackend(baseView())
	srv := New(b, Options{WriteTimeout: 150 * time.Millisecond, Heartbeat: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	// Registered before dialSSE's body-close cleanup: Close (which waits
	// for live handlers) must run after the healthy stream is closed.
	t.Cleanup(ts.Close)

	// Stalled client: completes the request, never reads the response.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/subscribe HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n")
	deadline := time.Now().Add(10 * time.Second)
	for srv.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled subscriber never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	healthy := dialSSE(t, ts.URL+"/v1/subscribe?relation=HasSpouse")
	if name, _ := healthy.next(t); name != "snapshot" {
		t.Fatal("healthy subscriber got no snapshot")
	}

	// Publish a stream of fat deltas. Every publish must return at
	// channel-close speed regardless of the stalled client's full socket,
	// and the healthy subscriber must observe a monotone epoch stream.
	wide := make([]Fact, 4000)
	var lastEpoch uint64 = 1
	for i := uint64(2); i < 40; i++ {
		for j := range wide {
			wide[j] = Fact{
				Tuple:       []string{fmt.Sprintf("left-%04d-%d", j, i), fmt.Sprintf("right-%04d-%d", j, i)},
				Probability: float64(i) / 100,
				Known:       true,
			}
		}
		start := time.Now()
		b.publish(&fakeView{epoch: i, rels: map[string][]Fact{"HasSpouse": append([]Fact(nil), wide...)}})
		if d := time.Since(start); d > time.Second {
			t.Fatalf("publish %d took %v with a stalled subscriber", i, d)
		}
		ev := healthy.nextDelta(t)
		if ev.Epoch <= lastEpoch {
			t.Fatalf("healthy subscriber epoch went %d -> %d", lastEpoch, ev.Epoch)
		}
		lastEpoch = ev.Epoch
	}

	// The stalled subscriber is eventually dropped by the write deadline.
	deadline = time.Now().Add(15 * time.Second)
	for srv.Subscribers() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled subscriber never dropped (still %d live)", srv.Subscribers())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srv.subsDropped.Load() == 0 {
		t.Fatal("drop counter not incremented")
	}
}
