package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure the HTTP serving tier.
type Options struct {
	// MinDelta is the default minimum |Δ probability| a subscription
	// pushes; per-request ?min_delta overrides it. 0 pushes every change.
	MinDelta float64
	// WriteTimeout bounds one subscriber event write: a client that
	// stalls longer than this is dropped (it reconnects for a fresh
	// resync). Default 30s.
	WriteTimeout time.Duration
	// Heartbeat is the idle keep-alive interval on subscription streams
	// (an SSE comment line, so intermediaries do not sever quiet
	// connections). Default 15s.
	Heartbeat time.Duration
	// MaxSubscribers caps concurrent subscription streams (503 beyond).
	// 0 means unbounded.
	MaxSubscribers int
	// ReadTimeout bounds one read-endpoint request (stats, autopilot,
	// marginal, facts). Reads are lock-free on the KB side, so this is a
	// safety net against pathological response sizes, not a queue-wait
	// bound. 0 (the default) means unbounded. /v1/health is exempt:
	// liveness must answer even when everything else is drowning.
	ReadTimeout time.Duration
	// UpdateTimeout bounds one POST /v1/update request, including the
	// ?wait=1 wait for the batch result. On expiry the handler responds
	// 503 update_timeout — the update may still apply if its batch was
	// already taken (a still-pending update is retracted). 0 (the
	// default) waits as long as the client does.
	UpdateTimeout time.Duration
	// ResumeWindow is how many recently published views the server holds
	// for SSE Last-Event-ID resumption: a subscriber reconnecting with an
	// epoch still in the window gets one catch-up delta instead of a full
	// snapshot resync. 0 selects the default (32); negative disables
	// resumption.
	ResumeWindow int
}

func (o Options) fill() Options {
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 15 * time.Second
	}
	if o.ResumeWindow == 0 {
		o.ResumeWindow = 32
	}
	return o
}

// Server is the HTTP serving tier over one Backend. Construct with New;
// expose via Handler (testable without a listener) or an http.Server of
// the caller's choosing.
type Server struct {
	b    Backend
	opts Options
	mux  *http.ServeMux
	// marginalRoute and factsRoute are the read handlers the mux holds for
	// GET /v1/marginal and GET /v1/facts, which ServeHTTP also routes
	// itself.
	marginalRoute, factsRoute http.Handler

	subscribers atomic.Int64 // live subscription streams
	subsTotal   atomic.Uint64
	subsDropped atomic.Uint64 // streams dropped for stalling past WriteTimeout
	subsResumed atomic.Uint64 // streams resumed from a Last-Event-ID token
	reads       atomic.Uint64 // read-endpoint requests served
	updates     atomic.Uint64 // update POSTs accepted
	shed        atomic.Uint64 // updates refused 429 at the admission gate
	renders     atomic.Uint64 // /v1/marginal 200s and 404s rendered: reads the kept replies missed

	// replies holds /v1/marginal replies as rendered for the current
	// epoch, one per slot, the bucket of two slots chosen by a hash of the
	// raw query under replySeed (see handleMarginal).
	replies   [replySlots]atomic.Pointer[cachedReply]
	replySeed maphash.Seed

	// ring holds recently published views for Last-Event-ID resumption
	// (see hub.go).
	ring resumeRing

	// facts maps a relation to the *factsTable its last /v1/facts scan
	// rendered (see handleFacts).
	facts sync.Map

	// Drain state: StartDrain flips draining (readiness fails, new
	// updates and subscriptions are refused 503 shutting_down) and closes
	// drainCh, which tells every live subscription loop to finish its
	// current event and end the stream. Reads keep serving until the
	// listener actually closes.
	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once
}

// New builds the serving tier over b.
func New(b Backend, opts Options) *Server {
	s := &Server{b: b, opts: opts.fill(), mux: http.NewServeMux(), drainCh: make(chan struct{}), replySeed: maphash.MakeSeed()}
	s.ring.cap = s.opts.ResumeWindow
	s.marginalRoute, s.factsRoute = s.read(s.handleMarginal), s.read(s.handleFacts)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.Handle("GET /v1/stats", s.read(s.handleStats))
	s.mux.Handle("GET /v1/autopilot", s.read(s.handleAutopilot))
	s.mux.Handle("GET /v1/marginal", s.marginalRoute)
	s.mux.Handle("GET /v1/facts", s.factsRoute)
	s.mux.HandleFunc("POST /v1/update", s.handleUpdate)
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	return s
}

// read wraps a read handler in the per-endpoint ReadTimeout (no-op when
// unset). Subscriptions and health are never wrapped: one is long-lived
// by design, the other is the liveness probe.
func (s *Server) read(h http.HandlerFunc) http.Handler {
	if s.opts.ReadTimeout <= 0 {
		return h
	}
	return http.TimeoutHandler(h, s.opts.ReadTimeout, `{"error":"read timeout","code":"read_timeout"}`)
}

// Handler returns the root handler (mountable under httptest or any
// http.Server): the Server itself.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP routes a GET or HEAD of exactly /v1/marginal or /v1/facts to
// its read handler and every other request to the mux. The two routes are
// registered on the mux as well, so that the mux still answers what it
// alone decides (404, 405 with Allow, the 301 to a clean path, OPTIONS *,
// an escaped spelling of a route) in its own bytes; taking the two hot
// routes here only spares every read the mux's pattern match, which cost
// about as much as the rest of a cached point read.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if (r.Method == http.MethodGet || r.Method == http.MethodHead) && r.URL.RawPath == "" {
		switch r.URL.Path {
		case "/v1/marginal":
			s.marginalRoute.ServeHTTP(w, r)
			return
		case "/v1/facts":
			s.factsRoute.ServeHTTP(w, r)
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// Subscribers reports the number of live subscription streams.
func (s *Server) Subscribers() int { return int(s.subscribers.Load()) }

// StartDrain begins a graceful drain: readiness (GET /v1/health?ready=1)
// starts failing 503 so load balancers stop routing here, new updates
// and new subscriptions are refused with code shutting_down, and every
// live subscription stream ends after its in-flight event. Point reads
// keep serving until the listener closes — a draining server is still
// alive. Idempotent.
func (s *Server) StartDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// retryAfterSeconds derives the Retry-After hint from queue pressure:
// the estimated time to drain the current backlog (pending updates ×
// the EWMA batch wall time), clamped to [1s, 60s].
func retryAfterSeconds(qs QueueStats) int {
	if qs.AvgBatchMillis <= 0 {
		return 1
	}
	sec := int(math.Ceil(float64(qs.Pending) * qs.AvgBatchMillis / 1000))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeErr writes one JSON error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleHealth serves both probe semantics over one endpoint:
//
//   - Liveness (default): 200 whenever the process can answer — through
//     DurabilityDegraded, ReadOnly, and a drain alike, because reads
//     keep serving off the snapshot pointer in every one of those
//     states. Restarting a degraded-but-serving KB would only lose its
//     repair progress.
//   - Readiness (?ready=1): 503 once the server is draining — stop
//     routing new work here. A degraded KB is still ready: it serves
//     reads and sheds updates with precise 503s of their own.
//
// The body always carries the full degraded-mode picture: health state
// machine, WAL status, repair counters, and queue depth.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.b.Health()
	draining := s.draining.Load()
	body := map[string]any{
		"status":   "ok",
		"epoch":    s.b.View().Epoch(),
		"state":    h.State,
		"draining": draining,
		"health":   h,
		"queue":    s.b.QueueStats(),
	}
	if r.URL.Query().Get("ready") == "1" && draining {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	v := s.b.View()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":     v.Epoch(),
		"relations": v.Relations(),
		"graph":     v.Stats(),
		"queue":     s.b.QueueStats(),
		"health":    s.b.Health(),
		"serving": map[string]any{
			"subscribers":         s.subscribers.Load(),
			"subscriptions_total": s.subsTotal.Load(),
			"subscribers_dropped": s.subsDropped.Load(),
			"subscribers_resumed": s.subsResumed.Load(),
			"reads":               s.reads.Load(),
			"updates_accepted":    s.updates.Load(),
			"updates_shed":        s.shed.Load(),
			"marginal_renders":    s.renders.Load(),
			"draining":            s.draining.Load(),
		},
	})
}

func (s *Server) handleAutopilot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":     s.b.View().Epoch(),
		"autopilot": s.b.Autopilot(),
	})
}

// handleMarginal is the wire point read: one fact's probability off the
// current snapshot. The whole request path is lock-free on the KB side —
// an atomic snapshot load plus a map lookup — and builds neither a query
// map nor a reflected reply: the query is scanned once (readQuery) and the
// body appended into a pooled buffer (appendMarginal).
//
// A reply is rendered once per epoch and raw query: a 200 or a 404 is kept
// in the bucket its raw query hashes to (the slot i it hashes to and slot
// i^1), and a later read of the same raw query at the same epoch writes
// the kept bytes. A miss stores into an empty entry of the bucket or one
// of an older epoch first, so two queries hashing to one bucket are both
// kept. An epoch names exactly one view (View.Epoch), so nothing is
// cleared when it moves: an entry of an older epoch no longer matches and
// a later miss replaces it. Only queries of at most maxCachedQuery bytes
// are kept, which bounds the cache by replySlots entries of a few times
// that size; a 400 depends on no view and is never kept.
func (s *Server) handleMarginal(w http.ResponseWriter, r *http.Request) {
	s.reads.Add(1)
	raw := r.URL.RawQuery
	v := s.b.View()
	epoch := v.Epoch()
	i := maphash.String(s.replySeed, raw) % replySlots
	for _, j := range [2]uint64{i, i ^ 1} {
		if c := s.replies[j].Load(); c != nil && c.epoch == epoch && c.query == raw {
			writeBody(w, c.code, c.body)
			return
		}
	}
	q := getQuery(raw)
	defer putQuery(q)
	if q.relation == "" || len(q.tuple) == 0 {
		writeErr(w, http.StatusBadRequest, "relation and at least one tuple parameter required")
		return
	}
	s.renders.Add(1)
	p, ok := v.Marginal(q.relation, q.tuple)
	code := http.StatusOK
	if !ok {
		code = http.StatusNotFound
	}
	bp := bodyPool.Get().(*[]byte)
	*bp = appendMarginal((*bp)[:0], epoch, ok, p, q.relation, q.tuple)
	writeBody(w, code, *bp)
	if len(raw) <= maxCachedQuery {
		j := i // slot i is evicted only when slot i^1 is as current
		if c := s.replies[i].Load(); c != nil && c.epoch >= epoch {
			if c := s.replies[i^1].Load(); c == nil || c.epoch < epoch {
				j = i ^ 1
			}
		}
		s.replies[j].Store(&cachedReply{epoch: epoch, query: strings.Clone(raw), code: code, body: bytes.Clone(*bp)})
	}
	bodyPool.Put(bp)
}

// The /v1/marginal reply cache: replySlots slots in buckets of two (a
// served KB of about a thousand point-read keys fits with few collisions,
// where a quarter of that thrashed), each holding at most one reply to a
// raw query of at most maxCachedQuery bytes.
const (
	replySlots     = 4096
	maxCachedQuery = 256
)

// cachedReply is one /v1/marginal reply as rendered for the view of one
// epoch. Nothing changes it once it is stored.
type cachedReply struct {
	epoch uint64
	query string // the raw query it answers
	code  int
	body  []byte
}

// handleFacts is the bulk read: one relation's fact table, optionally
// thresholded (facts with Known && Probability > threshold; supervised-true
// evidence reports probability 1, so it is kept below a threshold of 1).
//
// The body is the one json.Encoder writes for
// {"epoch":E,"facts":[...],"relation":R}, assembled from the relation's
// table as rendered once for the view (factsTable): a scan copies the
// JSON of the facts that pass the threshold and encodes nothing.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	s.reads.Add(1)
	q := getQuery(r.URL.RawQuery)
	defer putQuery(q)
	rel := q.relation
	if rel == "" {
		writeErr(w, http.StatusBadRequest, "relation parameter required")
		return
	}
	th, thresholded := 0.0, false
	if ts := q.threshold; ts != "" {
		var err error
		th, err = strconv.ParseFloat(ts, 64)
		if err != nil || math.IsNaN(th) {
			writeErr(w, http.StatusBadRequest, "bad threshold %q", ts)
			return
		}
		thresholded = true
	}
	t := s.cachedFacts(s.b.View(), rel)
	bp := bodyPool.Get().(*[]byte)
	*bp = t.appendBody((*bp)[:0], thresholded, th)
	writeBody(w, http.StatusOK, *bp)
	bodyPool.Put(bp)
}

// bodyPool recycles the response buffers of /v1/marginal and /v1/facts: a
// scan's body is about the size of its relation's table, and allocating
// one per scan doubled the CPU of a cached scan.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// jsonContentType is the Content-Type value of the appended bodies, set
// without Header().Set's allocation. Nothing writes to it.
var jsonContentType = []string{"application/json"}

// writeBody writes one appended JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write is the client's loss; nothing is left to send
}

// factsTable is one relation's /v1/facts rendering for the view of one
// epoch: every live fact's JSON, threshold-free, so that any threshold is
// a filter over the copy.
type factsTable struct {
	epoch uint64
	// head and tail wrap the facts: `{"epoch":E,"facts":[` and
	// `],"relation":R}` plus the newline json.Encoder ends a value with.
	head, tail []byte
	// slab is the facts' JSON, comma-separated, as the unthresholded
	// body carries them.
	slab  []byte
	facts []renderedFact
}

// renderedFact is one fact of a factsTable: where its JSON ends in the
// slab, and what a threshold tests.
type renderedFact struct {
	end   int
	p     float64
	known bool
}

// appendBody appends the reply to dst: every fact of t, or, thresholded,
// those with known && p > th.
func (t *factsTable) appendBody(dst []byte, thresholded bool, th float64) []byte {
	if n := len(t.head) + len(t.slab) + len(t.tail); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, t.head...)
	if !thresholded {
		dst = append(dst, t.slab...)
	} else {
		// Kept facts that are neighbours in the slab are copied as one
		// stretch, the commas between them included.
		first, start, run := len(dst), 0, -1 // run: where the current stretch starts
		for _, f := range t.facts {
			if f.known && f.p > th {
				if run < 0 {
					run = start
				}
			} else if run >= 0 {
				dst = appendStretch(dst, first, t.slab[run:start-1])
				run = -1
			}
			start = f.end + 1
		}
		if run >= 0 {
			dst = appendStretch(dst, first, t.slab[run:])
		}
	}
	return append(dst, t.tail...)
}

// appendStretch appends a stretch of facts' JSON to a list that starts at
// dst[first], after a comma unless it is the list's first.
func appendStretch(dst []byte, first int, stretch []byte) []byte {
	if len(dst) > first {
		dst = append(dst, ',')
	}
	return append(dst, stretch...)
}

// cachedFacts returns relation rel's table for view v, rendering it on the
// first scan of rel in v. Entries are checked by epoch, which names
// exactly one view of a backend (View.Epoch); a reader holding an older
// or newer view than the cached entry's renders its own and stores it —
// the last store wins, and two renderings of one view are the same bytes.
// A relation without facts is cached only once it had some, so request
// strings alone cannot grow the map.
func (s *Server) cachedFacts(v View, rel string) *factsTable {
	epoch := v.Epoch()
	cached, ok := s.facts.Load(rel)
	if ok {
		if t := cached.(*factsTable); t.epoch == epoch {
			return t
		}
	}
	t := renderFacts(epoch, rel, v.Facts(rel))
	if ok || len(t.facts) > 0 {
		s.facts.Store(rel, t)
	}
	return t
}

// renderFacts renders one relation's facts as a factsTable.
func renderFacts(epoch uint64, rel string, facts []Fact) *factsTable {
	t := &factsTable{epoch: epoch, facts: make([]renderedFact, len(facts))}
	t.head = strconv.AppendUint([]byte(`{"epoch":`), epoch, 10)
	t.head = append(t.head, `,"facts":[`...)
	t.tail = append(appendString([]byte(`],"relation":`), rel), "}\n"...)
	for i := range facts {
		f := &facts[i]
		if i > 0 {
			t.slab = append(t.slab, ',')
		}
		t.slab = appendFact(t.slab, f)
		t.facts[i] = renderedFact{end: len(t.slab), p: f.Probability, known: f.Known}
	}
	return t
}

// writeStatusErr writes one coded JSON error with its Retry-After hint.
func writeStatusErr(w http.ResponseWriter, se *StatusError) {
	if se.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
	}
	writeJSON(w, se.Status, map[string]string{"error": se.Msg, "code": se.Code})
}

// handleUpdate feeds one update into the KB's coalescing queue. The
// request body is the JSON Update; with ?wait=1 the response carries the
// applied batch's UpdateResult (epoch, coalesced width, strategy), and
// the wait runs under the request context — a disconnected client
// retracts a still-pending update per the queue's SubmitCtx contract.
// Without wait, a 202 acknowledges enqueueing only; apply errors surface
// through /v1/stats and waiting submitters.
//
// Refusals are typed, so clients can tell back-off from bad-request:
//
//	429 queue_saturated       pending ≥ capacity; Retry-After estimates
//	                          the backlog drain time
//	503 shutting_down         the server is draining (or the queue closed)
//	503 durability_suspended  WAL broken, repair in flight; Retry-After
//	                          hints at the repair backoff
//	503 read_only             repair has failed repeatedly; stop retrying
//	503 update_timeout        Options.UpdateTimeout expired mid-apply
//	409 (generic)             the update itself failed (bad rules, apply
//	                          error): do not retry unchanged
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeStatusErr(w, &StatusError{Status: http.StatusServiceUnavailable,
			Code: "shutting_down", Msg: "server is draining"})
		return
	}
	// Admission gate: shed before parsing the body — when the queue is at
	// its backpressure bound, Submit would block the handler goroutine;
	// refusing with a drain-time hint keeps the tier's memory bounded and
	// pushes the wait to the client, which can back off or go elsewhere.
	if qs := s.b.QueueStats(); qs.Capacity > 0 && qs.Pending >= qs.Capacity {
		s.shed.Add(1)
		writeStatusErr(w, &StatusError{Status: http.StatusTooManyRequests,
			Code: "queue_saturated", RetryAfter: retryAfterSeconds(qs),
			Msg: fmt.Sprintf("update queue saturated (%d pending / %d capacity)", qs.Pending, qs.Capacity)})
		return
	}
	var u Update
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		writeErr(w, http.StatusBadRequest, "bad update body: %v", err)
		return
	}
	// One JSON value per body: anything but whitespace after it is
	// refused, not dropped.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the update object")
		}
		writeErr(w, http.StatusBadRequest, "bad update body: %v", err)
		return
	}
	if u.Empty() {
		writeErr(w, http.StatusBadRequest, "empty update: provide rule_source, inserts, or deletes")
		return
	}
	for rel, ts := range u.Inserts {
		for _, t := range ts {
			if len(t) == 0 {
				writeErr(w, http.StatusBadRequest, "empty tuple in inserts[%q]", rel)
				return
			}
		}
	}
	for rel, ts := range u.Deletes {
		for _, t := range ts {
			if len(t) == 0 {
				writeErr(w, http.StatusBadRequest, "empty tuple in deletes[%q]", rel)
				return
			}
		}
	}
	wait := r.URL.Query().Get("wait") == "1"
	ctx := r.Context()
	if d := s.opts.UpdateTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	res, err := s.b.Submit(ctx, u, wait)
	if err != nil {
		if r.Context().Err() != nil {
			// Client went away mid-wait; nothing useful to write.
			return
		}
		var se *StatusError
		if errors.As(err, &se) {
			writeStatusErr(w, se)
			return
		}
		if ctx.Err() != nil {
			// The per-endpoint UpdateTimeout expired (the client is still
			// here). The update may still apply if its batch was already
			// taken; a still-pending one was retracted.
			writeStatusErr(w, &StatusError{Status: http.StatusServiceUnavailable,
				Code: "update_timeout", RetryAfter: retryAfterSeconds(s.b.QueueStats()),
				Msg: fmt.Sprintf("update timed out after %s", s.opts.UpdateTimeout)})
			return
		}
		writeErr(w, http.StatusConflict, "update failed: %v", err)
		return
	}
	s.updates.Add(1)
	if !wait {
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "queued"})
		return
	}
	writeJSON(w, http.StatusOK, res)
}
