package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// resumeRing holds the last Options.ResumeWindow published views, keyed
// by epoch, so a subscriber reconnecting with a Last-Event-ID still in
// the window can resume with one catch-up delta instead of a full
// snapshot resync. Views are immutable, so holding them costs only the
// memory of the snapshots themselves (which share with the live one
// everything the updates in between did not change). Filled by the subscription handlers as they observe
// publications; an epoch that was never observed by any subscriber ages
// out naturally and resumption falls back to the full resync.
type resumeRing struct {
	cap   int
	mu    sync.Mutex
	views []View // ascending epoch order; at most cap entries
}

// add records a published view (deduplicating by epoch).
func (r *resumeRing) add(v View) {
	if r.cap <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.views); n > 0 && r.views[n-1].Epoch() >= v.Epoch() {
		return
	}
	r.views = append(r.views, v)
	if len(r.views) > r.cap {
		r.views = append(r.views[:0:0], r.views[len(r.views)-r.cap:]...)
	}
}

// at returns the held view of one epoch, or nil when it aged out.
func (r *resumeRing) at(epoch uint64) View {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.views) - 1; i >= 0; i-- {
		switch {
		case r.views[i].Epoch() == epoch:
			return r.views[i]
		case r.views[i].Epoch() < epoch:
			return nil
		}
	}
	return nil
}

// Change is one per-fact delta pushed on a subscription stream.
type Change struct {
	Relation string   `json:"relation"`
	Tuple    []string `json:"tuple"`
	// Probability/Known/Evidence mirror Fact; meaningless when Removed.
	Probability float64 `json:"probability"`
	Known       bool    `json:"known"`
	Evidence    bool    `json:"evidence,omitempty"`
	// Delta is the signed probability movement since the last state this
	// subscriber was sent (0 for newly appearing facts).
	Delta float64 `json:"delta,omitempty"`
	// Removed marks a fact that left the KB (e.g. its document was
	// deleted and DRed retracted the candidate).
	Removed bool `json:"removed,omitempty"`
}

// deltaEvent is the payload of one "delta" stream event: every tracked
// fact that moved between the subscriber's last-sent state and the
// current snapshot.
type deltaEvent struct {
	Epoch uint64 `json:"epoch"`
	// Skipped counts publications this event coalesced over: 0 when the
	// subscriber kept up, n when it was slow (or filtered events were
	// suppressed) and n intermediate epochs were never sent. Consumers
	// needing every epoch must check Skipped and treat the event as a
	// state resync, not a strict journal.
	Skipped uint64   `json:"skipped,omitempty"`
	Changes []Change `json:"changes"`
	// held: the diff kept back a movement below the min_delta floor. An
	// empty event is then not written (see handleSubscribe).
	held bool
}

// snapshotEvent is the payload of the initial "snapshot" stream event.
type snapshotEvent struct {
	Epoch uint64            `json:"epoch"`
	Facts map[string][]Fact `json:"facts"`
}

// sentFact is the last per-fact state written to one subscriber.
type sentFact struct {
	p        float64
	known    bool
	evidence bool
}

// subFilter is one subscription's fact filter.
type subFilter struct {
	rels     map[string]bool // nil = all relations
	tupleKey string          // "" = all tuples
	minDelta float64
}

func (f *subFilter) wantRel(rel string) bool { return f.rels == nil || f.rels[rel] }

func factKey(tuple []string) string { return strings.Join(tuple, "\x00") }

// handleSubscribe streams per-fact marginal deltas as Server-Sent Events.
//
// Protocol: one "snapshot" event with the full filtered fact state, then
// one "delta" event per observed publication carrying every fact whose
// probability moved by at least min_delta (plus all appearances,
// removals, and known/evidence transitions). A publication that moved none
// of the subscriber's facts still sends its delta, with no changes: the
// subscriber holds that epoch, which is what an acked update's epoch is
// checked against. Only a publication whose every movement was kept back
// by the min_delta floor sends nothing; the next event's skipped count
// covers it. Each subscriber runs in its
// own handler goroutine and diffs the current snapshot against the state
// it last SENT — not against the previous epoch — so a subscriber that
// falls behind coalesces the missed epochs into one resync delta (the
// event's skipped count says how many) instead of replaying a backlog.
// A diff costs what changed: it visits the union of the change sets
// published since the epoch the subscriber last diffed at
// (View.ChangedSince), and every fact only when that epoch has left the
// window the views carry.
//
// The publish path never blocks on subscribers: publication just closes
// a broadcast channel (see Backend.Published), and all per-subscriber
// work — diffing, JSON encoding, the connection write — happens here.
// A write is bounded by Options.WriteTimeout; a client stalled past it
// is dropped and must reconnect for a fresh snapshot+resync.
//
// Reconnection: every snapshot/delta event carries an SSE id line (the
// epoch it brought the subscriber to). A client reconnecting with a
// Last-Event-ID whose epoch is still in the server's resume window gets
// a "resumed" event plus one catch-up delta from that epoch instead of
// the full snapshot; an aged-out epoch falls back to the ordinary full
// resync. On drain the stream ends with a "drain" event after the
// in-flight write, so clients know to reconnect elsewhere.
//
// Query parameters: relation (repeatable; default all), tuple
// (repeatable components naming one fact; requires exactly one
// relation), min_delta (default Options.MinDelta).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeStatusErr(w, &StatusError{Status: http.StatusServiceUnavailable,
			Code: "shutting_down", Msg: "server is draining"})
		return
	}
	if max := s.opts.MaxSubscribers; max > 0 && s.subscribers.Load() >= int64(max) {
		writeStatusErr(w, &StatusError{Status: http.StatusServiceUnavailable,
			Code: "subscriber_limit", RetryAfter: 1,
			Msg: fmt.Sprintf("subscriber limit (%d) reached", max)})
		return
	}
	q := r.URL.Query()
	filter := subFilter{minDelta: s.opts.MinDelta}
	if rels := q["relation"]; len(rels) > 0 {
		filter.rels = make(map[string]bool, len(rels))
		for _, rel := range rels {
			filter.rels[rel] = true
		}
	}
	if tuple := q["tuple"]; len(tuple) > 0 {
		if len(filter.rels) != 1 {
			writeErr(w, http.StatusBadRequest, "tuple filter requires exactly one relation parameter")
			return
		}
		filter.tupleKey = factKey(tuple)
	}
	if md := q.Get("min_delta"); md != "" {
		v, err := strconv.ParseFloat(md, 64)
		if err != nil || v < 0 || math.IsNaN(v) {
			writeErr(w, http.StatusBadRequest, "bad min_delta %q", md)
			return
		}
		filter.minDelta = v
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	s.subscribers.Add(1)
	s.subsTotal.Add(1)
	defer s.subscribers.Add(-1)

	rc := http.NewResponseController(w)
	// Every event carries an id line — the epoch it brings the subscriber
	// to — which SSE clients echo back as Last-Event-ID on reconnect. An
	// event is one write of its whole frame.
	writeFrame := func(frame []byte) error {
		if err := rc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)); err != nil &&
			!errors.Is(err, http.ErrNotSupported) {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.subsDropped.Add(1)
			}
			return err
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		return nil
	}
	var frame []byte // reused from event to event
	writeEvent := func(name string, id uint64, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		frame = append(append(appendEventHead(frame[:0], name, id), data...), "\n\n"...)
		return writeFrame(frame)
	}
	// writeDelta is writeEvent for the stream's steady state, a delta per
	// publication, appended without reflection.
	writeDelta := func(ev *deltaEvent) error {
		frame = append(appendDelta(appendEventHead(frame[:0], "delta", ev.Epoch), ev), "\n\n"...)
		return writeFrame(frame)
	}

	// Arm the publication channel BEFORE reading the view: a publication
	// racing the initial snapshot then still wakes the loop, which diffs
	// against last-sent state and so never misses it.
	pub := s.b.Published()
	v := s.b.View()
	s.ring.add(v)
	sent := make(map[string]map[string]sentFact)
	// lastEpoch is the epoch of the last event written, diffed the epoch
	// sent was last compared at: they part when a diff clears no floor.
	lastEpoch := v.Epoch()
	diffed := lastEpoch

	// Last-Event-ID resumption: rebuild the subscriber's last-sent state
	// from the held view of the epoch it already has, so the catch-up is
	// one delta instead of the full fact table.
	resumed := false
	if tok := r.Header.Get("Last-Event-ID"); tok != "" && s.opts.ResumeWindow > 0 {
		if ep, err := strconv.ParseUint(tok, 10, 64); err == nil && ep <= lastEpoch {
			if held := s.ring.at(ep); held != nil {
				collectSent(held, &filter, sent)
				lastEpoch, diffed = ep, ep
				resumed = true
				s.subsResumed.Add(1)
			}
		}
	}
	if resumed {
		if err := writeEvent("resumed", lastEpoch, map[string]uint64{"epoch": lastEpoch}); err != nil {
			return
		}
		// Catch-up delta from the resumed epoch to the current view. Same
		// min_delta bookkeeping as the loop: an all-filtered diff keeps
		// lastEpoch stale so the skipped count stays honest later.
		if v.Epoch() != lastEpoch {
			ev := diff(v, &filter, sent, diffed)
			diffed = v.Epoch()
			if !ev.suppressed() {
				ev.Skipped = v.Epoch() - lastEpoch - 1
				lastEpoch = v.Epoch()
				if err := writeDelta(&ev); err != nil {
					return
				}
			}
		}
	} else {
		init := snapshotEvent{Epoch: v.Epoch(), Facts: map[string][]Fact{}}
		for _, rel := range v.Relations() {
			if !filter.wantRel(rel) {
				continue
			}
			var kept []Fact
			for _, f := range v.Facts(rel) {
				k := factKey(f.Tuple)
				if filter.tupleKey != "" && k != filter.tupleKey {
					continue
				}
				kept = append(kept, f)
			}
			init.Facts[rel] = kept
		}
		collectSent(v, &filter, sent)
		if err := writeEvent("snapshot", init.Epoch, init); err != nil {
			return
		}
	}

	heartbeat := time.NewTicker(s.opts.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			// Graceful drain: tell the client this stream is over (it
			// should reconnect to another instance) and end the handler so
			// the server's shutdown is not held hostage by idle streams.
			_ = writeEvent("drain", lastEpoch, map[string]uint64{"epoch": lastEpoch})
			return
		case <-heartbeat.C:
			if err := writeFrame(heartbeatFrame); err != nil {
				return
			}
		case <-pub:
		}
		// Re-arm before reading so a publication landing between the read
		// and the next select wakes the loop immediately.
		pub = s.b.Published()
		v = s.b.View()
		s.ring.add(v)
		if v.Epoch() == diffed {
			continue
		}
		ev := diff(v, &filter, sent, diffed)
		diffed = v.Epoch()
		if ev.suppressed() {
			// All movement below min_delta: keep lastEpoch stale so the
			// skipped count stays honest when a change finally clears it.
			continue
		}
		ev.Skipped = v.Epoch() - lastEpoch - 1
		lastEpoch = v.Epoch()
		if err := writeDelta(&ev); err != nil {
			return
		}
	}
}

// suppressed reports whether the event is not to be written: it carries no
// change and a movement below the min_delta floor is why. An event that is
// empty because nothing moved is written — its epoch is news.
func (ev *deltaEvent) suppressed() bool { return len(ev.Changes) == 0 && ev.held }

// heartbeatFrame is the SSE comment an idle stream writes every
// Options.Heartbeat: it keeps proxies from timing the connection out and
// carries no event.
var heartbeatFrame = []byte(": hb\n\n")

// appendEventHead appends an SSE event's id and event lines and the start
// of its data line.
func appendEventHead(dst []byte, name string, id uint64) []byte {
	dst = strconv.AppendUint(append(dst, "id: "...), id, 10)
	dst = append(append(append(dst, "\nevent: "...), name...), "\ndata: "...)
	return dst
}

// collectSent seeds a subscriber's sent-state map with the filtered
// facts of one view (the state the client is assumed to already hold).
func collectSent(v View, filter *subFilter, sent map[string]map[string]sentFact) {
	for _, rel := range v.Relations() {
		if !filter.wantRel(rel) {
			continue
		}
		m := sent[rel]
		if m == nil {
			m = make(map[string]sentFact)
			sent[rel] = m
		}
		for _, f := range v.Facts(rel) {
			k := factKey(f.Tuple)
			if filter.tupleKey != "" && k != filter.tupleKey {
				continue
			}
			m[k] = sentFact{p: f.Probability, known: f.Known, evidence: f.Evidence}
		}
	}
}

// diff computes the delta event between a subscriber's last-sent state —
// last compared against the view of epoch since — and the current view,
// updating sent in place for every emitted change (changes below the
// min_delta floor keep their old sent state, so small drifts accumulate
// and eventually clear the floor). It visits the facts the publications
// after since changed when the view knows them, every fact otherwise; the
// two emit the same event, relations in sorted order, each relation's
// present facts in the view's order followed by its removals in key order.
// held says a visited fact moved by less than the floor: over the change
// sets that is a movement of these publications, over every fact it is any
// drift still kept back — the full comparison suppresses an empty event
// for longer, never writes one the other path would not.
func diff(v View, filter *subFilter, sent map[string]map[string]sentFact, since uint64) deltaEvent {
	if changed, ok := v.ChangedSince(since); ok {
		return diffChanged(v.Epoch(), changed, filter, sent)
	}
	return diffAll(v, filter, sent)
}

// relDiff accumulates one relation's share of a delta event.
type relDiff struct {
	ev      *deltaEvent
	filter  *subFilter
	rel     string
	m       map[string]sentFact // the relation's sent state
	removed []string            // keys of sent facts the view no longer holds
}

// present compares one fact the view holds against its sent state.
func (d *relDiff) present(k string, f Fact) {
	old, existed := d.m[k]
	cur := sentFact{p: f.Probability, known: f.Known, evidence: f.Evidence}
	c := Change{Relation: d.rel, Tuple: f.Tuple, Probability: f.Probability, Known: f.Known, Evidence: f.Evidence}
	switch {
	case !existed:
	case old.known != cur.known || old.evidence != cur.evidence ||
		(cur.known && abs(cur.p-old.p) >= d.filter.minDelta && cur.p != old.p):
		c.Delta = cur.p - old.p
	default:
		d.ev.held = d.ev.held || cur.known && cur.p != old.p
		return
	}
	d.ev.Changes = append(d.ev.Changes, c)
	d.m[k] = cur
}

// flush emits the relation's removals, in key order.
func (d *relDiff) flush() {
	sort.Strings(d.removed)
	for _, k := range d.removed {
		d.ev.Changes = append(d.ev.Changes, Change{
			Relation: d.rel, Tuple: strings.Split(k, "\x00"),
			Delta: -d.m[k].p, Removed: true,
		})
		delete(d.m, k)
	}
}

// relState returns (creating it) the sent state of one relation.
func relState(sent map[string]map[string]sentFact, rel string) map[string]sentFact {
	m := sent[rel]
	if m == nil {
		m = make(map[string]sentFact)
		sent[rel] = m
	}
	return m
}

// diffChanged is diff over the facts changed since the last one.
func diffChanged(epoch uint64, changed []FactChange, filter *subFilter, sent map[string]map[string]sentFact) deltaEvent {
	ev := deltaEvent{Epoch: epoch, Changes: []Change{}}
	var d *relDiff
	for i := range changed {
		c := &changed[i]
		if !filter.wantRel(c.Relation) {
			continue
		}
		k := factKey(c.Tuple)
		if filter.tupleKey != "" && k != filter.tupleKey {
			continue
		}
		if d == nil || d.rel != c.Relation {
			if d != nil {
				d.flush()
			}
			d = &relDiff{ev: &ev, filter: filter, rel: c.Relation, m: relState(sent, c.Relation)}
		}
		if c.Live {
			d.present(k, c.Fact)
		} else if _, was := d.m[k]; was {
			d.removed = append(d.removed, k)
		}
	}
	if d != nil {
		d.flush()
	}
	return ev
}

// diffAll is diff over every fact of the view and of the sent state: the
// path of a subscriber whose last diff has left the views' change window,
// and the oracle the change-set path is tested against.
func diffAll(v View, filter *subFilter, sent map[string]map[string]sentFact) deltaEvent {
	ev := deltaEvent{Epoch: v.Epoch(), Changes: []Change{}}
	// The view's relations and those the subscriber still holds facts of
	// (a relation vanishes when its every fact is retracted).
	rels := v.Relations()
	for rel, m := range sent {
		if len(m) > 0 {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	for i, rel := range rels {
		if !filter.wantRel(rel) || (i > 0 && rel == rels[i-1]) {
			continue
		}
		d := &relDiff{ev: &ev, filter: filter, rel: rel, m: relState(sent, rel)}
		live := make(map[string]bool, len(d.m))
		for _, f := range v.Facts(rel) {
			k := factKey(f.Tuple)
			if filter.tupleKey != "" && k != filter.tupleKey {
				continue
			}
			live[k] = true
			d.present(k, f)
		}
		for k := range d.m {
			if !live[k] {
				d.removed = append(d.removed, k)
			}
		}
		d.flush()
	}
	return ev
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
