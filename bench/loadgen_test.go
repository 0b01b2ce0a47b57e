package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Open loop: arrivals keep their schedule whatever the replies do, and
// latency is counted from the due time, so a stall is charged to every
// operation it delayed (coordinated omission corrected).
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const n, conns = 12, 1
	interval := 5 * time.Millisecond
	start := time.Now().Add(2 * time.Millisecond)
	res := runOpenLoop(start, n, interval, conns, func(i, conn int, due time.Time) error {
		if i == 2 {
			time.Sleep(40 * time.Millisecond) // one stalled reply
		}
		if i == 7 {
			return errors.New("refused")
		}
		return nil
	})
	if len(res.Ops) != n || res.LateUS.n() != n || len(res.Backlog) != n {
		t.Fatalf("recorded %d ops, %d lateness samples, %d backlog samples", len(res.Ops), res.LateUS.n(), len(res.Backlog))
	}
	for i, op := range res.Ops {
		if want := start.Add(time.Duration(i) * interval); !op.Due.Equal(want) {
			t.Fatalf("op %d due %v, want %v: the schedule moved", i, op.Due.Sub(start), want.Sub(start))
		}
		if op.Sent.Before(op.Due) {
			t.Errorf("op %d sent %v before it was due", i, op.Due.Sub(op.Sent))
		}
		if op.OK != (i != 7) {
			t.Errorf("op %d OK=%v", i, op.OK)
		}
	}
	// Op 3 was due 5 ms after op 2 but could not be sent until op 2's
	// 40 ms stall ended: its latency from the due time must show ≥ 30 ms,
	// although its own service time was ~0.
	if got := res.Ops[3].latency(); got < 30*time.Millisecond {
		t.Errorf("op 3 latency %v: the stall before it was omitted", got)
	}
	if service := res.Ops[3].Done.Sub(res.Ops[3].Sent); service > 20*time.Millisecond {
		t.Errorf("op 3 service time %v: the test's premise is off", service)
	}
	// The generator itself stayed on schedule: lateness is the timer's
	// overshoot (well under the stall), not the wait for a connection.
	if late := res.LateUS.median(); late > 20000 {
		t.Errorf("generator lateness median %v µs: arrivals waited on replies", late)
	}
	// The backlog saw the stall: some arrival found earlier ones unsent.
	max := 0
	for _, b := range res.Backlog {
		if b > max {
			max = b
		}
	}
	if max < 2 {
		t.Errorf("backlog never exceeded %d during a 40 ms stall at 5 ms arrivals", max)
	}
}

func TestBacklogGrowthInvalidatesWindow(t *testing.T) {
	flat := make([]int, 60)
	for i := range flat {
		flat[i] = i % 2
	}
	if grew, _ := backlogGrew(flat, 2); grew {
		t.Error("a flat backlog was called growing")
	}
	ramp := make([]int, 60)
	for i := range ramp {
		ramp[i] = i / 2
	}
	if grew, why := backlogGrew(ramp, 2); !grew || why == "" {
		t.Error("a backlog growing by one operation every two arrivals was not flagged")
	}
	// A burst that drains is not growth.
	burst := make([]int, 60)
	for i := 10; i < 20; i++ {
		burst[i] = 8
	}
	if grew, _ := backlogGrew(burst, 2); grew {
		t.Error("a burst that drained was called growing")
	}
}

func TestClosedLoopStopsOnDeadlineAndInputs(t *testing.T) {
	var calls atomic.Int64
	ops := runClosedLoop(30*time.Millisecond, 2, func(i, conn int) error {
		calls.Add(1)
		if i >= 5 {
			return errDone
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if len(ops) != 5 {
		t.Errorf("recorded %d operations, want the 5 that had inputs", len(ops))
	}
	if got := every(400); got != 2500*time.Microsecond {
		t.Errorf("every(400) = %v", got)
	}
}
