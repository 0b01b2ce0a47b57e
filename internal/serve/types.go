// Package serve is the KB's network serving tier: an HTTP/JSON front
// end over the snapshot-isolated read API, the coalescing update queue,
// and a streaming subscription endpoint that pushes per-fact marginal
// deltas on every snapshot publication.
//
// The package is deliberately decoupled from the root deepdive package
// through the Backend interface (deepdive.KB.Serve supplies the adapter)
// so the HTTP layer stays testable against a fake KB and the root
// package stays free of net/http.
//
// # Endpoints
//
//	GET  /v1/health                   liveness + current epoch
//	GET  /v1/stats                    graph + queue + serving statistics
//	GET  /v1/autopilot                quality-autopilot state (snapshot-frozen)
//	GET  /v1/marginal?relation=R&tuple=a&tuple=b
//	                                  one fact's probability (lock-free point read)
//	GET  /v1/facts?relation=R[&threshold=0.9]
//	                                  bulk fact table of one relation
//	POST /v1/update[?wait=1]          submit an update through the queue;
//	                                  wait=1 blocks for the batch's UpdateResult
//	GET  /v1/subscribe?...            SSE stream of per-fact marginal deltas
//
// Every read endpoint serves straight off the current snapshot — an
// atomic pointer load on the Backend side — and never touches a KB
// write lock. A /v1/facts scan copies JSON rendered once per relation
// and view. A point read writes the reply kept for its raw query at the
// current epoch; only a miss scans its query and appends its reply
// (query.go, encode.go). Server.ServeHTTP routes GET and HEAD of the two
// read endpoints itself and hands every other request to an
// http.ServeMux. See the package's handler documentation and the README
// "Network serving" section for the subscription semantics.
package serve

import (
	"context"

	"deepdive/internal/db"
)

// Fact is one fact of a snapshot relation, as deepdive.Snapshot.Facts
// enumerates it and the wire carries it (deepdive.Fact is this type).
type Fact struct {
	Tuple db.Tuple `json:"tuple"`
	// Probability is the fact's marginal (evidence facts report their
	// supervised 0/1 value). Meaningless when Known is false.
	Probability float64 `json:"probability"`
	// Known is false when no inference run has covered the fact yet —
	// e.g. on the snapshot Init publishes, before the first Infer or
	// Materialize.
	Known    bool `json:"known"`
	Evidence bool `json:"evidence,omitempty"`
}

// Update is one KB update — rule source and/or inserted and deleted
// tuples per relation — in process and as the body of POST /v1/update
// (deepdive.Update is this type; its documentation says what the KB
// accepts).
type Update struct {
	RuleSource string                `json:"rule_source,omitempty"`
	Inserts    map[string][]db.Tuple `json:"inserts,omitempty"`
	Deletes    map[string][]db.Tuple `json:"deletes,omitempty"`
}

// Empty reports whether the update carries no work: no rule source and
// no tuple in any relation.
func (u *Update) Empty() bool {
	if u.RuleSource != "" {
		return false
	}
	for _, m := range []map[string][]db.Tuple{u.Inserts, u.Deletes} {
		for _, ts := range m {
			if len(ts) > 0 {
				return false
			}
		}
	}
	return true
}

// UpdateResult is the wire form of a batch's application report.
type UpdateResult struct {
	Epoch      uint64  `json:"epoch"`
	Coalesced  int     `json:"coalesced"`
	Strategy   string  `json:"strategy"`
	Acceptance float64 `json:"acceptance"`
	Probe      float64 `json:"probe"`
	NewVars    int     `json:"new_vars"`
	NewFactors int     `json:"new_factors"`
	// ScopeVars, LearnedWeights and DirtyVars say how much of the graph the
	// finish stage worked on (deepdive.UpdateResult): the variables
	// learning sampled and the weights it could move, and the variables
	// inference re-estimated. 0/0/0 is "nothing to do"; the stats'
	// variable count is "the whole graph". SweptVars is the part of
	// DirtyVars not solved exactly: the components past the enumeration
	// bound, which went to Strategy ("exact" when there were none).
	ScopeVars      int     `json:"scope_vars"`
	LearnedWeights int     `json:"learned_weights"`
	DirtyVars      int     `json:"dirty_vars"`
	SweptVars      int     `json:"swept_vars,omitempty"`
	GroundMillis   float64 `json:"ground_ms"`
	LearnMillis    float64 `json:"learn_ms"`
	InferMillis    float64 `json:"infer_ms"`
}

// QueueStats is a point-in-time summary of the update queue's counters
// (deepdive.QueueStats is this type).
type QueueStats struct {
	// Pending is how many submitted updates await application.
	Pending int `json:"pending"`
	// Capacity is the queue's backpressure bound (0 = unbounded).
	Capacity int `json:"capacity,omitempty"`
	// Batches is how many coalesced batches have been applied.
	Batches uint64 `json:"batches"`
	// Applied is how many submitted updates have been resolved.
	Applied uint64 `json:"applied"`
	// AvgBatchMillis is an exponentially-weighted moving average of
	// recent batch wall times (grounding through publication), in
	// milliseconds; 0 until the first batch completes. The Retry-After
	// hint under saturation is Pending × AvgBatchMillis.
	AvgBatchMillis float64 `json:"avg_batch_ms,omitempty"`
	// Closed reports that the queue no longer accepts updates.
	Closed bool `json:"closed,omitempty"`
}

// HealthState is one state of the KB's degraded-mode state machine
// (deepdive.HealthState is this type; the root package's health.go runs
// the machine).
type HealthState int32

const (
	// Healthy: the write path is fully operational (for a durable KB, the
	// WAL chain is complete; a non-durable KB is always Healthy).
	Healthy HealthState = iota
	// DurabilityDegraded: a WAL append failed, updates are refused with
	// deepdive.ErrDurabilitySuspended, and the background repair loop is
	// retrying the repair checkpoint. Reads serve normally.
	DurabilityDegraded
	// ReadOnly: repair has failed deepdive.Options.ReadOnlyAfter
	// consecutive times; updates are refused with deepdive.ErrReadOnly.
	// Reads serve normally and the repair loop keeps retrying at the
	// capped backoff.
	ReadOnly
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case DurabilityDegraded:
		return "durability-degraded"
	case ReadOnly:
		return "read-only"
	}
	return "unknown"
}

// MarshalText writes the state's name, so JSON reads "healthy".
func (s HealthState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// HealthInfo is a point-in-time report of the KB's degraded-mode
// machinery, the one behind /v1/health (deepdive.HealthStats is this
// type): the health state, WAL status, and self-repair counters.
type HealthInfo struct {
	// State is the KB health state. Non-durable KBs are always Healthy.
	State HealthState `json:"state"`
	// Durable reports whether a data directory is configured at all.
	Durable bool `json:"durable"`
	// WALBroken reports an incomplete durable chain (updates refused).
	WALBroken bool `json:"wal_broken,omitempty"`
	// AutoRepair / Repairing report the background repair loop's
	// configuration and liveness; the counters its history (attempts,
	// failed attempts, repairs that landed).
	AutoRepair     bool   `json:"auto_repair"`
	Repairing      bool   `json:"repairing,omitempty"`
	RepairAttempts uint64 `json:"repair_attempts,omitempty"`
	RepairFailures uint64 `json:"repair_failures,omitempty"`
	AutoRepairs    uint64 `json:"auto_repairs,omitempty"`
}

// StatusError is a backend refusal with a concrete HTTP mapping: the
// status code, a machine-readable error code for the JSON body, and an
// optional Retry-After hint in seconds. The update handler unwraps it
// with errors.As; refusals without one fall back to 409.
type StatusError struct {
	Status     int
	Code       string
	RetryAfter int // seconds; 0 omits the header
	Msg        string
}

func (e *StatusError) Error() string { return e.Msg }

// View is one immutable snapshot of the KB as the HTTP layer consumes
// it. Implementations must be safe for concurrent use and must never
// block on KB writers (the deepdive adapter wraps an immutable
// Snapshot).
type View interface {
	// Epoch is the snapshot's publication generation (monotone). Every
	// publication takes a new epoch, so an epoch names exactly one view of
	// a backend: the server keys the /v1/facts renderings it caches on it.
	Epoch() uint64
	// Relations lists the relations with live facts, sorted.
	Relations() []string
	// Facts enumerates one relation's facts in stable order.
	Facts(relation string) []Fact
	// Marginal is the point read behind /v1/marginal. The tuple slice is
	// reused once the call returns: an implementation must not keep it.
	Marginal(relation string, tuple []string) (float64, bool)
	// Stats returns the JSON-marshalable graph statistics blob.
	Stats() any
	// ChangedSince lists the facts whose state may differ between the view
	// of publication epoch since and this one, ordered by relation and
	// within a relation as Facts orders them, each as this view holds it.
	// ok is false when the view cannot say — since is too far back, or a
	// publication in between changed everything — and the caller must
	// compare every fact.
	ChangedSince(since uint64) (changed []FactChange, ok bool)
}

// FactChange is one entry of View.ChangedSince: a fact of the view, or —
// Live false — one the view no longer holds.
type FactChange struct {
	Relation string
	Fact
	Live bool
}

// Backend is the narrow surface the HTTP layer needs from a KB. All
// methods must be safe for concurrent use; View and Published must not
// block on writers.
type Backend interface {
	// View returns the current snapshot (an atomic load on the KB side).
	View() View
	// Published returns a channel closed at the next snapshot
	// publication. Subscribers acquire the channel before reading the
	// view so no publication is missed (see deepdive.KB.Published).
	Published() <-chan struct{}
	// Submit routes an update into the KB's coalescing queue under ctx.
	// With wait, it blocks until the update's batch is applied (or ctx
	// is cancelled) and returns the batch result; without, it returns
	// (nil, nil) as soon as the update is enqueued.
	Submit(ctx context.Context, u Update, wait bool) (*UpdateResult, error)
	// Autopilot returns the JSON-marshalable autopilot state frozen into
	// the latest snapshot (nil before materialization).
	Autopilot() any
	// QueueStats reports the update queue's counters.
	QueueStats() QueueStats
	// Health reports the KB's degraded-mode state (never blocks on
	// writers; liveness must stay observable through any fault).
	Health() HealthInfo
}
