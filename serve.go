package deepdive

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"deepdive/internal/serve"
)

// ServeOptions configure KB.Serve's HTTP front end: the listen address
// and the serving tier's own options (subscription defaults, timeouts,
// the resume window; see serve.Options).
type ServeOptions struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port;
	// KBServer.Addr reports the bound address).
	Addr string
	serve.Options
}

// KBServer is a running HTTP serving tier over one KB (see KB.Serve).
type KBServer struct {
	inner *serve.Server
	http  *http.Server
	ln    net.Listener
	done  chan struct{}
	err   error
}

// Addr returns the server's bound listen address.
func (s *KBServer) Addr() string { return s.ln.Addr().String() }

// Handler returns the server's root handler (useful for tests mounting
// it under a custom http.Server).
func (s *KBServer) Handler() http.Handler { return s.inner.Handler() }

// Subscribers reports the number of live subscription streams.
func (s *KBServer) Subscribers() int { return s.inner.Subscribers() }

// StartDrain flips the server into draining mode without stopping it:
// readiness probes fail 503, new updates and subscriptions are refused
// with code shutting_down, and live subscription streams end with a
// "drain" event. Reads keep serving. Use it to take an instance out of
// rotation ahead of Shutdown.
func (s *KBServer) StartDrain() { s.inner.StartDrain() }

// Shutdown gracefully stops the server: the drain starts first (so
// readiness fails, update/subscribe traffic is refused, and streams end
// with a "drain" event instead of a severed connection), then in-flight
// requests get until ctx to finish. The KB itself is not closed.
func (s *KBServer) Shutdown(ctx context.Context) error {
	s.inner.StartDrain()
	err := s.http.Shutdown(ctx)
	<-s.done
	if err == nil && s.err != http.ErrServerClosed {
		err = s.err
	}
	return err
}

// Serve starts the KB's network serving tier: an HTTP/JSON API over the
// snapshot read path (lock-free point and bulk reads), the coalescing
// update queue (POST /v1/update, optionally blocking for the batch's
// UpdateResult), and streaming marginal-delta subscriptions (GET
// /v1/subscribe, Server-Sent Events pushed on every snapshot
// publication). See the internal/serve package documentation for the
// endpoint table and subscription semantics.
//
// Serve binds the listener synchronously — on return the server is
// accepting and Addr is valid — and serves until ctx is cancelled or
// Shutdown is called. Cancelling ctx severs subscription streams and
// stops the listener; pending updates already in the queue still apply.
func (kb *KB) Serve(ctx context.Context, o ServeOptions) (*KBServer, error) {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return nil, fmt.Errorf("deepdive: serve: %w", err)
	}
	inner := serve.New(kbBackend{kb}, o.Options)
	srv := &KBServer{
		inner: inner,
		ln:    ln,
		done:  make(chan struct{}),
	}
	srv.http = &http.Server{
		Handler:           inner.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	go func() {
		srv.err = srv.http.Serve(ln)
		close(srv.done)
	}()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = srv.http.Shutdown(sctx)
			case <-srv.done:
			}
		}()
	}
	return srv, nil
}

// kbBackend adapts a *KB to the internal/serve Backend interface. The
// adapter is the seam that keeps net/http out of the KB proper and the
// HTTP layer testable against a fake: every read goes through the
// current Snapshot (an atomic load), never a KB write lock.
type kbBackend struct{ kb *KB }

func (b kbBackend) View() serve.View             { return kbView{b.kb.Snapshot()} }
func (b kbBackend) Published() <-chan struct{}   { return b.kb.Published() }
func (b kbBackend) QueueStats() serve.QueueStats { return b.kb.Updates().Stats() }

// Health is the KB's own report. Lock-free on the KB side, so the
// liveness probe answers through any fault.
func (b kbBackend) Health() serve.HealthInfo { return b.kb.Health() }

// Autopilot returns the autopilot state frozen into the latest snapshot
// (taking KB.Autopilot's live state would mean acquiring the writer lock, which
// a slow writer could hold for a whole inference run).
func (b kbBackend) Autopilot() any {
	return b.kb.Snapshot().Stats().Autopilot
}

func (b kbBackend) Submit(ctx context.Context, u serve.Update, wait bool) (*serve.UpdateResult, error) {
	t, err := b.kb.Updates().SubmitCtx(ctx, u)
	if err != nil {
		return nil, err
	}
	if !wait {
		// A closed queue resolves the ticket immediately — surface that as
		// a typed refusal instead of acknowledging an update that will
		// never apply.
		select {
		case <-t.Done():
			if _, err := t.Wait(nil); err != nil {
				return nil, b.mapKBError(err)
			}
		default:
		}
		return nil, nil
	}
	res, err := t.Wait(ctx)
	if err != nil {
		return nil, b.mapKBError(err)
	}
	return wireResult(res), nil
}

// mapKBError attaches HTTP semantics to the KB's typed refusals so the
// serve tier can tell "back off and retry" (503 + optional Retry-After)
// from "bad request" (the generic 409 fallback).
func (b kbBackend) mapKBError(err error) error {
	switch {
	case errors.Is(err, ErrReadOnly):
		// Repair keeps failing; retrying soon is pointless — no hint.
		return &serve.StatusError{Status: http.StatusServiceUnavailable,
			Code: "read_only", Msg: err.Error()}
	case errors.Is(err, ErrDurabilitySuspended):
		// Repair is (normally) in flight; hint at its backoff scale.
		ra := int(b.kb.opts.RepairBackoff / time.Second)
		if ra < 1 {
			ra = 1
		}
		return &serve.StatusError{Status: http.StatusServiceUnavailable,
			Code: "durability_suspended", RetryAfter: ra, Msg: err.Error()}
	case errors.Is(err, ErrQueueClosed):
		return &serve.StatusError{Status: http.StatusServiceUnavailable,
			Code: "shutting_down", Msg: err.Error()}
	case errors.Is(err, ErrInvalidTuple):
		return &serve.StatusError{Status: http.StatusBadRequest,
			Code: "invalid_tuple", Msg: err.Error()}
	}
	return err
}

func wireResult(r *UpdateResult) *serve.UpdateResult {
	return &serve.UpdateResult{
		Epoch:          r.Epoch,
		Coalesced:      r.Coalesced,
		Strategy:       r.Strategy.String(),
		Acceptance:     r.Acceptance,
		Probe:          r.Probe,
		NewVars:        r.NewVars,
		NewFactors:     r.NewFactors,
		ScopeVars:      r.ScopeVars,
		LearnedWeights: r.LearnedWeights,
		DirtyVars:      r.DirtyVars,
		SweptVars:      r.SweptVars,
		GroundMillis:   float64(r.GroundTime) / float64(time.Millisecond),
		LearnMillis:    float64(r.LearnTime) / float64(time.Millisecond),
		InferMillis:    float64(r.InferTime) / float64(time.Millisecond),
	}
}

// kbView adapts one immutable Snapshot to the serve.View interface. Its
// epoch is the one publishStaged took for the snapshot, and every
// publication takes the next, so no two views share an epoch (the
// serve.View.Epoch contract).
type kbView struct{ s *Snapshot }

func (v kbView) Epoch() uint64       { return v.s.Epoch() }
func (v kbView) Relations() []string { return v.s.Relations() }
func (v kbView) Stats() any          { return v.s.Stats() }

func (v kbView) Marginal(relation string, tuple []string) (float64, bool) {
	return v.s.Marginal(relation, Tuple(tuple))
}

func (v kbView) Facts(relation string) []serve.Fact { return v.s.Facts(relation) }

func (v kbView) ChangedSince(since uint64) ([]serve.FactChange, bool) {
	return v.s.changedSince(since)
}
