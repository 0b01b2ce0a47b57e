package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// I/O fault injection. The durability layer's failure modes are not
// only crashes: a disk can return ENOSPC or EIO from a write, an fsync
// can stall for seconds on a saturated device, and both must leave the
// KB in a recoverable, still-serving state. The Injector interface lets
// tests (and the chaos harness) place such faults at exact operations —
// the fault *returns* as an error or delay instead of killing the
// process, which is what distinguishes it from the kill points the root
// package's crash tests abort at.

// Op identifies one injectable I/O operation of the durability layer.
type Op string

const (
	// OpWALAppend is the record write of WAL.Append (before the data
	// reaches the file).
	OpWALAppend Op = "wal-append"
	// OpWALSync is the fsync of WAL.Append (and WAL.Sync): the point a
	// record becomes durable. A latency injection here models a slow
	// fsync on a saturated device.
	OpWALSync Op = "wal-sync"
	// OpWALCreate is the creation of a fresh WAL segment (checkpoint
	// rotation).
	OpWALCreate Op = "wal-create"
	// OpSnapWrite is the data write of a snapshot file (WriteFileAtomic's
	// temp-file write).
	OpSnapWrite Op = "snap-write"
	// OpSnapSync is the snapshot file's fsync before rename.
	OpSnapSync Op = "snap-sync"
)

// Injector decides the fate of one I/O operation: return nil to let it
// proceed (after any injected latency), or an error to fail it at that
// point. Implementations must be safe for concurrent use — the WAL
// append path and the off-lock snapshot writer run on different
// goroutines.
type Injector interface {
	Fault(op Op) error
}

// Canonical injected-error classes. They are distinct sentinel values
// (not syscall errnos, for portability) so tests can assert the exact
// class that propagated: errors.Is(err, persist.ErrInjectedNoSpace).
var (
	ErrInjectedNoSpace = errors.New("persist: injected ENOSPC (no space left on device)")
	ErrInjectedIO      = errors.New("persist: injected EIO (input/output error)")
)

// faultState is one op's armed behavior inside a FaultPlan.
type faultState struct {
	oneShot []error       // queue of one-shot errors, consumed in order
	sticky  error         // returned on every call until cleared
	latency time.Duration // injected delay per call
	prob    float64       // probability of failing with probErr
	probErr error
}

// FaultPlan is a concrete, concurrency-safe Injector with three arming
// modes per operation — a one-shot error queue (consumed in order), a
// sticky error (every call fails until cleared), and a probabilistic
// error — plus per-op latency injection that composes with all of them.
// The zero value injects nothing.
type FaultPlan struct {
	mu    sync.Mutex
	ops   map[Op]*faultState
	rng   *rand.Rand
	count map[Op]uint64 // faults actually injected (errors returned)
	calls map[Op]uint64 // operations consulted
}

// NewFaultPlan returns an empty plan; seed fixes the probabilistic
// arm's RNG so chaos schedules are reproducible.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		ops:   map[Op]*faultState{},
		rng:   rand.New(rand.NewSource(seed)),
		count: map[Op]uint64{},
		calls: map[Op]uint64{},
	}
}

func (p *FaultPlan) state(op Op) *faultState {
	st := p.ops[op]
	if st == nil {
		st = &faultState{}
		p.ops[op] = st
	}
	return st
}

// Arm queues one error to be returned by the next call to op (FIFO when
// armed repeatedly).
func (p *FaultPlan) Arm(op Op, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state(op).oneShot = append(p.state(op).oneShot, err)
}

// SetSticky makes every call to op fail with err until cleared with a
// nil err. One-shot arms take precedence while queued.
func (p *FaultPlan) SetSticky(op Op, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state(op).sticky = err
}

// SetLatency injects a delay into every call to op (0 clears). The
// delay applies whether or not the call also fails.
func (p *FaultPlan) SetLatency(op Op, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state(op).latency = d
}

// SetProbabilistic fails each call to op with probability prob (using
// the plan's seeded RNG). prob <= 0 clears.
func (p *FaultPlan) SetProbabilistic(op Op, prob float64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state(op)
	st.prob, st.probErr = prob, err
}

// Injected reports how many calls to op returned an injected error.
func (p *FaultPlan) Injected(op Op) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count[op]
}

// Calls reports how many times op was consulted.
func (p *FaultPlan) Calls(op Op) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[op]
}

// Fault implements Injector.
func (p *FaultPlan) Fault(op Op) error {
	p.mu.Lock()
	st := p.ops[op]
	p.calls[op]++
	if st == nil {
		p.mu.Unlock()
		return nil
	}
	latency := st.latency
	var err error
	switch {
	case len(st.oneShot) > 0:
		err = st.oneShot[0]
		st.oneShot = st.oneShot[1:]
	case st.sticky != nil:
		err = st.sticky
	case st.prob > 0 && p.rng.Float64() < st.prob:
		err = st.probErr
	}
	if err != nil {
		p.count[op]++
	}
	p.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	if err != nil {
		return fmt.Errorf("injected fault at %s: %w", op, err)
	}
	return nil
}

// inject consults an optional injector (nil-safe helper for the write
// paths below).
func inject(inj Injector, op Op) error {
	if inj == nil {
		return nil
	}
	return inj.Fault(op)
}
