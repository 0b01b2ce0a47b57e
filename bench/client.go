package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"deepdive"
)

// wireClient is one traffic class's HTTP client: at most conns
// connections to the server, kept alive.
type wireClient struct {
	base string
	hc   *http.Client
}

func newWireClient(base string, conns int) *wireClient {
	return &wireClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute},
		Timeout:   30 * time.Second,
	}}
}

func (c *wireClient) close() { c.hc.CloseIdleConnections() }

// wireError is a non-200 reply. Typed says the body carried a "code"
// (the server's typed refusals); an untyped refusal is a defect.
type wireError struct {
	Status int
	Code   string
	Body   string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("HTTP %d %s %s", e.Status, e.Code, strings.TrimSpace(e.Body))
}

func (e *wireError) typed() bool { return e.Code != "" }

func asWireError(status int, body []byte) *wireError {
	var parsed struct {
		Code string `json:"code"`
	}
	_ = json.Unmarshal(body, &parsed)
	if len(body) > 200 {
		body = body[:200]
	}
	return &wireError{Status: status, Code: parsed.Code, Body: string(body)}
}

// get fetches path and decodes the JSON reply into out; it returns the
// body size.
func (c *wireClient) get(ctx context.Context, path string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(body), asWireError(resp.StatusCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return len(body), fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return len(body), nil
}

// wireUpdateResult is the part of the update reply the harness reads.
type wireUpdateResult struct {
	Epoch     uint64  `json:"epoch"`
	Coalesced int     `json:"coalesced"`
	GroundMS  float64 `json:"ground_ms"`
	LearnMS   float64 `json:"learn_ms"`
	InferMS   float64 `json:"infer_ms"`
}

// updateBody renders an update as the wire's JSON.
func updateBody(u deepdive.Update) []byte {
	conv := func(m map[string][]deepdive.Tuple) map[string][][]string {
		if len(m) == 0 {
			return nil
		}
		out := make(map[string][][]string, len(m))
		for rel, ts := range m {
			rows := make([][]string, len(ts))
			for i, t := range ts {
				rows[i] = []string(t)
			}
			out[rel] = rows
		}
		return out
	}
	b, err := json.Marshal(map[string]any{"inserts": conv(u.Inserts), "deletes": conv(u.Deletes)})
	if err != nil {
		panic(err) // strings and slices of strings always marshal
	}
	return b
}

// update POSTs /v1/update?wait=1 and returns the applied batch's report.
func (c *wireClient) update(ctx context.Context, body []byte) (wireUpdateResult, error) {
	var res wireUpdateResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/update?wait=1", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, asWireError(resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("update reply: %w", err)
	}
	return res, nil
}

// wireFact is one fact of a /v1/facts reply.
type wireFact struct {
	Tuple       []string `json:"tuple"`
	Probability float64  `json:"probability"`
	Known       bool     `json:"known"`
}

// facts fetches a relation's whole fact table.
func (c *wireClient) facts(ctx context.Context, rel string) ([]wireFact, error) {
	var out struct {
		Facts []wireFact `json:"facts"`
	}
	_, err := c.get(ctx, "/v1/facts?"+url.Values{"relation": {rel}}.Encode(), &out)
	return out.Facts, err
}

// allWireFacts fetches every relation's fact table: key → present.
func (c *wireClient) allWireFacts(ctx context.Context, rels []string) (map[string]bool, error) {
	out := map[string]bool{}
	for _, rel := range rels {
		fs, err := c.facts(ctx, rel)
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			out[factKey(rel, f.Tuple)] = true
		}
	}
	return out, nil
}

// subscriber is one SSE client of /v1/subscribe. It records when each
// epoch became visible (the first event carrying that epoch or a later
// one) and checks the stream's own invariants.
type subscriber struct {
	mu        sync.Mutex
	seen      []epochSeen // ascending epochs
	events    int
	skipped   uint64
	resumes   int
	nonMono   int // events whose epoch did not advance
	lastEpoch uint64
	ready     chan struct{}
	readyOnce sync.Once
	done      chan struct{}
	err       error
}

type epochSeen struct {
	epoch uint64
	at    time.Time
}

// startSubscriber opens the stream (all relations, every change) and
// returns once the initial snapshot event has arrived.
func startSubscriber(ctx context.Context, base string) (*subscriber, error) {
	s := &subscriber{ready: make(chan struct{}), done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe", nil)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, asWireError(resp.StatusCode, body)
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		defer hc.CloseIdleConnections()
		s.err = s.consume(resp.Body)
	}()
	select {
	case <-s.ready:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("subscription ended before its snapshot event: %v", s.err)
	case <-time.After(20 * time.Second):
		return nil, fmt.Errorf("no snapshot event within 20s")
	}
}

// consume parses the event stream until it ends.
func (s *subscriber) consume(body io.Reader) error {
	rd := bufio.NewReaderSize(body, 1<<20)
	var event string
	var data []byte
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			if err == io.EOF || strings.Contains(err.Error(), "context canceled") {
				return nil
			}
			return err
		}
		now := time.Now()
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			s.dispatch(event, data, now)
			event, data = "", nil
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		}
	}
}

func (s *subscriber) dispatch(event string, data []byte, at time.Time) {
	if event == "" {
		return // heartbeat comment
	}
	var ev struct {
		Epoch   uint64 `json:"epoch"`
		Skipped uint64 `json:"skipped"`
	}
	if err := json.Unmarshal(data, &ev); err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch event {
	case "snapshot":
		s.lastEpoch = ev.Epoch
		s.readyOnce.Do(func() { close(s.ready) })
	case "resumed":
		s.resumes++
	case "delta":
		s.events++
		s.skipped += ev.Skipped
		if ev.Epoch <= s.lastEpoch {
			s.nonMono++
		}
		s.lastEpoch = ev.Epoch
		s.seen = append(s.seen, epochSeen{ev.Epoch, at})
	}
}

// visibleAt returns when the subscriber first held epoch (or a later
// one), and whether it ever did.
func (s *subscriber) visibleAt(epoch uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.seen {
		if e.epoch >= epoch {
			return e.at, true
		}
	}
	return time.Time{}, false
}

// waitFor blocks until epoch is visible or the timeout passes.
func (s *subscriber) waitFor(epoch uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, ok := s.visibleAt(epoch); ok {
			return true
		}
		select {
		case <-s.done:
			_, ok := s.visibleAt(epoch)
			return ok
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// wireStats is the part of /v1/stats the harness reads.
type wireStats struct {
	Epoch     uint64   `json:"epoch"`
	Relations []string `json:"relations"`
	Queue     struct {
		Pending int    `json:"pending"`
		Batches uint64 `json:"batches"`
		Applied uint64 `json:"applied"`
	} `json:"queue"`
	Serving struct {
		Dropped uint64 `json:"subscribers_dropped"`
		Resumed uint64 `json:"subscribers_resumed"`
		Reads   uint64 `json:"reads"`
		Shed    uint64 `json:"updates_shed"`
	} `json:"serving"`
}

func (c *wireClient) stats(ctx context.Context) (wireStats, error) {
	var st wireStats
	_, err := c.get(ctx, "/v1/stats", &st)
	return st, err
}
