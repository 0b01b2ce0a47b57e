package main

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// opTiming is what the generator records for one operation: when it was
// due, when a connection picked it up, and when its reply arrived.
// Latency is measured from Due — a stall that delays later sends is
// charged to the operations it delayed (coordinated omission corrected).
type opTiming struct {
	Index int
	Due   time.Time
	Sent  time.Time
	Done  time.Time
	OK    bool
}

func (o opTiming) latency() time.Duration { return o.Done.Sub(o.Due) }

// openLoopResult is one open-loop window.
type openLoopResult struct {
	Ops []opTiming
	// LateUS is, per arrival, how late the generator itself put the
	// operation on the queue (timer overshoot and scheduling), in µs. It
	// says whether the schedule that was offered is the one that was asked
	// for; waiting for a free connection is not lateness, it is latency.
	LateUS samples
	// Backlog is, per arrival, how many due operations had not been sent.
	Backlog []int
	Elapsed time.Duration
}

// runOpenLoop offers n operations on a fixed schedule, one every
// interval starting at start, independent of replies, over conns
// connections. do is called with the operation index and the connection
// number; its error marks the operation failed.
func runOpenLoop(start time.Time, n int, interval time.Duration, conns int, do func(i, conn int, due time.Time) error) *openLoopResult {
	res := &openLoopResult{Ops: make([]opTiming, n), Backlog: make([]int, n)}
	// Sized to the number of sends so the generator never blocks on a
	// slow system: arrivals stay on schedule whatever the replies do.
	queue := make(chan int, n)
	var inflightMu sync.Mutex
	sent := 0
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				op := &res.Ops[i]
				inflightMu.Lock()
				sent++
				inflightMu.Unlock()
				op.Sent = time.Now()
				err := do(i, conn, op.Due)
				op.Done = time.Now()
				op.OK = err == nil
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.Ops[i].Index, res.Ops[i].Due = i, due
		res.LateUS.add(float64(time.Since(due)) / 1e3)
		inflightMu.Lock()
		res.Backlog[i] = i - sent
		inflightMu.Unlock()
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// backlogGrew reports whether the send backlog kept growing across the
// window: the mean backlog over the last third of arrivals exceeds both
// twice the connection count and twice the first third's mean plus one.
// A growing backlog means the offered rate is above capacity, every
// percentile is then a function of the window length, and the window is
// invalid rather than slow.
func backlogGrew(backlog []int, conns int) (bool, string) {
	n := len(backlog)
	if n < 6 {
		return false, ""
	}
	third := n / 3
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	first, last := mean(backlog[:third]), mean(backlog[n-third:])
	if last > float64(2*conns) && last > 2*first+1 {
		return true, fmt.Sprintf("send backlog grew from %.1f to %.1f operations over the window (%d connections): offered rate is above capacity", first, last, conns)
	}
	return false, ""
}

// runClosedLoop runs conns clients for dur, each sending its next
// operation only after the previous reply. Operation indices come from a
// shared counter; a client stops early when do reports errDone (inputs
// ran out).
func runClosedLoop(dur time.Duration, conns int, do func(i, conn int) error) (ops []opTiming) {
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				t := time.Now()
				err := do(i, conn)
				if errors.Is(err, errDone) {
					return
				}
				op := opTiming{Index: i, Due: t, Sent: t, Done: time.Now(), OK: err == nil}
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ops
}

// errDone is what a closed-loop operation returns when its inputs ran out.
var errDone = errors.New("out of inputs")

// every is the arrival interval of a fixed rate per second.
func every(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }
