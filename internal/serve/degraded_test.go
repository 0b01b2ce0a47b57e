package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postUpdate posts one valid update body and returns the response (caller
// closes the body).
func postUpdate(t *testing.T, url string, wait bool) *http.Response {
	t.Helper()
	u := url + "/v1/update"
	if wait {
		u += "?wait=1"
	}
	resp, err := http.Post(u, "application/json",
		strings.NewReader(`{"inserts": {"Sentence": [["s1", "text"]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeErr(t *testing.T, resp *http.Response) map[string]string {
	t.Helper()
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("bad error JSON: %v", err)
	}
	return body
}

// TestOverloadShedding pins the admission gate: a saturated queue sheds
// updates with 429 + a Retry-After derived from the backlog drain
// estimate, before the body ever reaches Submit.
func TestOverloadShedding(t *testing.T) {
	b := newFakeBackend(baseView())
	submitted := 0
	b.submit = func(ctx context.Context, u Update, wait bool) (*UpdateResult, error) {
		submitted++
		return &UpdateResult{Epoch: 2}, nil
	}
	// 8 pending × 500ms per batch = 4s drain estimate.
	b.mu.Lock()
	b.stats = QueueStats{Pending: 8, Capacity: 8, AvgBatchMillis: 500}
	b.mu.Unlock()
	srv := New(b, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := postUpdate(t, ts.URL, true)
	if resp.StatusCode != 429 {
		t.Fatalf("saturated update: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "4" {
		t.Fatalf("Retry-After = %q, want 4 (8 pending x 500ms)", ra)
	}
	if body := decodeErr(t, resp); body["code"] != "queue_saturated" {
		t.Fatalf("error code = %q, want queue_saturated", body["code"])
	}
	if submitted != 0 {
		t.Fatal("shed update reached Submit")
	}
	if srv.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", srv.shed.Load())
	}

	// Below capacity the gate opens again.
	b.mu.Lock()
	b.stats = QueueStats{Pending: 3, Capacity: 8, AvgBatchMillis: 500}
	b.mu.Unlock()
	resp = postUpdate(t, ts.URL, true)
	resp.Body.Close()
	if resp.StatusCode != 200 || submitted != 1 {
		t.Fatalf("post-pressure update: %d (submitted %d), want 200/1", resp.StatusCode, submitted)
	}
}

// TestRetryAfterSeconds pins the hint's clamps.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		qs   QueueStats
		want int
	}{
		{QueueStats{Pending: 8, AvgBatchMillis: 0}, 1},      // no estimate yet
		{QueueStats{Pending: 1, AvgBatchMillis: 10}, 1},     // sub-second clamps up
		{QueueStats{Pending: 8, AvgBatchMillis: 500}, 4},    // the honest middle
		{QueueStats{Pending: 500, AvgBatchMillis: 900}, 60}, // capped
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.qs); got != c.want {
			t.Errorf("retryAfterSeconds(%+v) = %d, want %d", c.qs, got, c.want)
		}
	}
}

// TestStatusErrorMapping pins the typed-refusal wire surface: a backend
// StatusError carries its status, code, and Retry-After through the
// update handler; untyped errors stay the generic 409.
func TestStatusErrorMapping(t *testing.T) {
	b := newFakeBackend(baseView())
	var refusal error
	b.submit = func(ctx context.Context, u Update, wait bool) (*UpdateResult, error) {
		return nil, refusal
	}
	ts := testServer(t, b, Options{})

	cases := []struct {
		err        error
		status     int
		code       string
		retryAfter string
	}{
		{&StatusError{Status: 503, Code: "durability_suspended", RetryAfter: 2,
			Msg: "durable chain broken"}, 503, "durability_suspended", "2"},
		{&StatusError{Status: 503, Code: "read_only",
			Msg: "repair failed repeatedly"}, 503, "read_only", ""},
		{&StatusError{Status: 503, Code: "shutting_down",
			Msg: "queue closed"}, 503, "shutting_down", ""},
	}
	for _, c := range cases {
		refusal = c.err
		resp := postUpdate(t, ts.URL, true)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.code, resp.StatusCode, c.status)
		}
		if ra := resp.Header.Get("Retry-After"); ra != c.retryAfter {
			t.Fatalf("%s: Retry-After %q, want %q", c.code, ra, c.retryAfter)
		}
		if body := decodeErr(t, resp); body["code"] != c.code {
			t.Fatalf("error code %q, want %q", body["code"], c.code)
		}
	}

	// An untyped apply error stays the generic conflict: retrying
	// unchanged will not help, and no Retry-After pretends otherwise.
	b.submit = func(ctx context.Context, u Update, wait bool) (*UpdateResult, error) {
		return nil, errInjectedApply
	}
	resp := postUpdate(t, ts.URL, true)
	if resp.StatusCode != 409 {
		t.Fatalf("untyped refusal: %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// The no-wait path surfaces typed refusals too (a closed queue must
	// not be acknowledged 202).
	b.submit = func(ctx context.Context, u Update, wait bool) (*UpdateResult, error) {
		return nil, &StatusError{Status: 503, Code: "shutting_down", Msg: "queue closed"}
	}
	resp = postUpdate(t, ts.URL, false)
	if resp.StatusCode != 503 {
		t.Fatalf("no-wait refusal: %d, want 503", resp.StatusCode)
	}
	if body := decodeErr(t, resp); body["code"] != "shutting_down" {
		t.Fatalf("no-wait code = %q, want shutting_down", body["code"])
	}
}

type injectedApplyError struct{}

func (injectedApplyError) Error() string { return "injected apply error" }

var errInjectedApply = injectedApplyError{}

// TestUpdateTimeout pins the per-endpoint update bound: a Submit that
// outlives Options.UpdateTimeout comes back 503 update_timeout while the
// client is still connected.
func TestUpdateTimeout(t *testing.T) {
	b := newFakeBackend(baseView())
	b.submit = func(ctx context.Context, u Update, wait bool) (*UpdateResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := testServer(t, b, Options{UpdateTimeout: 50 * time.Millisecond})

	start := time.Now()
	resp := postUpdate(t, ts.URL, true)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v", d)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("timed-out update: %d, want 503", resp.StatusCode)
	}
	if body := decodeErr(t, resp); body["code"] != "update_timeout" {
		t.Fatalf("error code = %q, want update_timeout", body["code"])
	}
}

// TestHealthDegradedReporting pins liveness-vs-readiness semantics: the
// health endpoint answers 200 through every KB state (restarting a
// degraded-but-serving KB would only lose repair progress) and carries
// the full degraded-mode report in the body.
func TestHealthDegradedReporting(t *testing.T) {
	b := newFakeBackend(baseView())
	b.mu.Lock()
	b.health = HealthInfo{
		State: DurabilityDegraded, Durable: true, WALBroken: true,
		AutoRepair: true, Repairing: true, RepairAttempts: 3, RepairFailures: 3,
	}
	b.mu.Unlock()
	ts := testServer(t, b, Options{})

	code, body := get(t, ts.URL+"/v1/health")
	if code != 200 {
		t.Fatalf("degraded liveness: %d, want 200", code)
	}
	if body["state"] != "durability-degraded" {
		t.Fatalf("health state = %v", body["state"])
	}
	h := body["health"].(map[string]any)
	if h["wal_broken"] != true || h["repairing"] != true || h["repair_failures"] != float64(3) {
		t.Fatalf("health report: %v", h)
	}

	// A degraded KB is still READY — it serves reads and sheds writes
	// with precise 503s of its own.
	if code, _ := get(t, ts.URL+"/v1/health?ready=1"); code != 200 {
		t.Fatalf("degraded readiness: %d, want 200", code)
	}

	// /v1/stats carries the same report for dashboards.
	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 || body["health"].(map[string]any)["state"] != "durability-degraded" {
		t.Fatalf("stats health: %d %v", code, body["health"])
	}
}

// TestDrain pins the graceful-drain protocol end to end: readiness fails,
// new updates and subscriptions are refused shutting_down, live streams
// end with a "drain" event, and plain reads keep serving.
func TestDrain(t *testing.T) {
	b := newFakeBackend(baseView())
	srv := New(b, Options{Heartbeat: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	c := dialSSE(t, ts.URL+"/v1/subscribe?relation=HasSpouse")
	if name, _ := c.next(t); name != "snapshot" {
		t.Fatal("no snapshot before drain")
	}

	srv.StartDrain()
	srv.StartDrain() // idempotent

	// The live stream ends with a drain event after its in-flight write.
	name, data := c.next(t)
	if name != "drain" {
		t.Fatalf("stream event %q, want drain (data %s)", name, data)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Subscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("drained stream never ended")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Liveness stays 200; readiness fails with status draining.
	code, body := get(t, ts.URL+"/v1/health")
	if code != 200 || body["draining"] != true {
		t.Fatalf("draining liveness: %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/v1/health?ready=1")
	if code != 503 || body["status"] != "draining" {
		t.Fatalf("draining readiness: %d %v", code, body)
	}

	// New updates and subscriptions are refused with the typed code.
	resp := postUpdate(t, ts.URL, true)
	if resp.StatusCode != 503 {
		t.Fatalf("draining update: %d, want 503", resp.StatusCode)
	}
	if body := decodeErr(t, resp); body["code"] != "shutting_down" {
		t.Fatalf("draining update code = %q", body["code"])
	}
	resp, err := http.Get(ts.URL + "/v1/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("draining subscribe: %d, want 503", resp.StatusCode)
	}
	if body := decodeErr(t, resp); body["code"] != "shutting_down" {
		t.Fatalf("draining subscribe code = %q", body["code"])
	}

	// Plain reads keep serving through the drain.
	if code, _ := get(t, ts.URL+"/v1/facts?relation=HasSpouse"); code != 200 {
		t.Fatalf("draining read: %d, want 200", code)
	}
}

// dialSSEResume dials the subscription endpoint with a Last-Event-ID
// header, emulating an EventSource client reconnecting.
func dialSSEResume(t *testing.T, url, lastEventID string) *sseClient {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestSubscribeResume pins Last-Event-ID resumption: a reconnecting
// subscriber whose epoch is still in the resume window gets a "resumed"
// event plus one catch-up delta carrying exactly the movement it missed,
// instead of the full snapshot resync.
func TestSubscribeResume(t *testing.T) {
	b := newFakeBackend(baseView())
	srv := New(b, Options{Heartbeat: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// First connection observes epochs 1 and 2, seeding the resume ring.
	c := dialSSE(t, ts.URL+"/v1/subscribe?relation=HasSpouse")
	if name, _ := c.next(t); name != "snapshot" {
		t.Fatal("no snapshot event")
	}
	b.publish(&fakeView{epoch: 2, rels: map[string][]Fact{
		"HasSpouse": {
			{Tuple: []string{"Alan", "Beth"}, Probability: 0.95, Known: true},
			{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
		},
	}})
	if ev := c.nextDelta(t); ev.Epoch != 2 {
		t.Fatalf("first client delta: %+v", ev)
	}
	c.resp.Body.Close() // the client "loses" its connection

	// The KB moves on while the client is gone.
	b.publish(&fakeView{epoch: 3, rels: map[string][]Fact{
		"HasSpouse": {
			{Tuple: []string{"Alan", "Beth"}, Probability: 0.97, Known: true},
			{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
		},
	}})

	// Reconnect with the epoch the client already holds.
	rc := dialSSEResume(t, ts.URL+"/v1/subscribe?relation=HasSpouse", "2")
	name, data := rc.next(t)
	if name != "resumed" {
		t.Fatalf("first event %q, want resumed (data %s)", name, data)
	}
	var res map[string]uint64
	if err := json.Unmarshal([]byte(data), &res); err != nil || res["epoch"] != 2 {
		t.Fatalf("resumed payload: %s (%v)", data, err)
	}
	ev := rc.nextDelta(t)
	if ev.Epoch != 3 || len(ev.Changes) != 1 {
		t.Fatalf("catch-up delta: %+v", ev)
	}
	if ch := ev.Changes[0]; factKey(ch.Tuple) != factKey([]string{"Alan", "Beth"}) ||
		abs(ch.Delta-0.02) > 1e-12 {
		t.Fatalf("catch-up change: %+v (want the 0.95->0.97 movement)", ch)
	}
	if srv.subsResumed.Load() != 1 {
		t.Fatalf("resume counter = %d, want 1", srv.subsResumed.Load())
	}

	// The resumed stream keeps receiving ordinary deltas.
	b.publish(&fakeView{epoch: 4, rels: map[string][]Fact{
		"HasSpouse": {
			{Tuple: []string{"Alan", "Beth"}, Probability: 0.5, Known: true},
			{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
		},
	}})
	if ev := rc.nextDelta(t); ev.Epoch != 4 || len(ev.Changes) != 1 {
		t.Fatalf("post-resume delta: %+v", ev)
	}
}

// TestSubscribeResumeFallback pins the aged-out path: a Last-Event-ID no
// longer in the window (or from the future) falls back to the full
// snapshot resync instead of failing the stream.
func TestSubscribeResumeFallback(t *testing.T) {
	b := newFakeBackend(baseView())
	srv := New(b, Options{Heartbeat: time.Hour, ResumeWindow: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Seed the 1-deep ring with epoch 1, then age it out with epoch 2.
	c := dialSSE(t, ts.URL+"/v1/subscribe")
	c.next(t)
	b.publish(&fakeView{epoch: 2, rels: map[string][]Fact{
		"HasSpouse": {
			{Tuple: []string{"Alan", "Beth"}, Probability: 0.95, Known: true},
			{Tuple: []string{"Eve", "Frank"}, Probability: 0.3, Known: true},
		},
	}})
	c.nextDelta(t)
	c.resp.Body.Close()

	for _, tok := range []string{"1", "999", "not-an-epoch"} {
		rc := dialSSEResume(t, ts.URL+"/v1/subscribe", tok)
		name, data := rc.next(t)
		if name != "snapshot" {
			t.Fatalf("Last-Event-ID %q: first event %q, want snapshot fallback", tok, name)
		}
		var snap snapshotEvent
		if err := json.Unmarshal([]byte(data), &snap); err != nil || snap.Epoch != 2 {
			t.Fatalf("Last-Event-ID %q: fallback snapshot %s", tok, data)
		}
		rc.resp.Body.Close()
	}
	if srv.subsResumed.Load() != 0 {
		t.Fatalf("fallbacks counted as resumes: %d", srv.subsResumed.Load())
	}

	// A negative window disables resumption outright.
	srv2 := New(b, Options{Heartbeat: time.Hour, ResumeWindow: -1})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	c2 := dialSSE(t, ts2.URL+"/v1/subscribe")
	c2.next(t)
	c2.resp.Body.Close()
	rc := dialSSEResume(t, ts2.URL+"/v1/subscribe", "2")
	if name, _ := rc.next(t); name != "snapshot" {
		t.Fatalf("disabled resume: first event %q, want snapshot", name)
	}
}

// TestSSEEventIDs pins that every snapshot/delta event carries an SSE id
// line with the epoch it brings the subscriber to — the token clients
// echo back as Last-Event-ID.
func TestSSEEventIDs(t *testing.T) {
	b := newFakeBackend(baseView())
	ts := testServer(t, b, Options{Heartbeat: time.Hour})

	resp, err := http.Get(ts.URL + "/v1/subscribe?relation=HasSpouse")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	rd := bufio.NewReader(resp.Body)

	readEvent := func() (id, name string) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				line, err := rd.ReadString('\n')
				if err != nil {
					return
				}
				line = strings.TrimRight(line, "\n")
				switch {
				case strings.HasPrefix(line, "id: "):
					id = strings.TrimPrefix(line, "id: ")
				case strings.HasPrefix(line, "event: "):
					name = strings.TrimPrefix(line, "event: ")
				case line == "" && name != "":
					return
				}
			}
		}()
		select {
		case <-done:
			return id, name
		case <-time.After(5 * time.Second):
			t.Fatal("no event within 5s")
			return "", ""
		}
	}

	if id, name := readEvent(); name != "snapshot" || id != "1" {
		t.Fatalf("snapshot id line: event %q id %q, want snapshot/1", name, id)
	}
	b.publish(&fakeView{epoch: 7, rels: map[string][]Fact{
		"HasSpouse": {
			{Tuple: []string{"Alan", "Beth"}, Probability: 0.5, Known: true},
		},
	}})
	if id, name := readEvent(); name != "delta" || id != "7" {
		t.Fatalf("delta id line: event %q id %q, want delta/7", name, id)
	}
}
