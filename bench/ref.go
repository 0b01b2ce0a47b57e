package main

import (
	"encoding/json"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference unit. The sandbox runs in two moods: for minutes at a
// time the same code costs 20–40 % more CPU time than it did the minute
// before (a neighbour on the sibling hyperthread, most likely), and ten
// runs of a workload land on both sides of that. A fixed piece of work
// that belongs to the harness — nothing in the repository can make it
// faster or slower — run in the same process, in between the operations
// it is compared with, costs more in the same minutes (over 23 same-seed
// runs of devloop_rules its CPU time correlated 0.8 with the workload's
// and dividing by it took the range from 30 % to 18 %). So every
// end-to-end CPU figure is reported in reference milliseconds:
//
//	CPU time × refNominalMS ÷ the unit's CPU time in the same slice of the run
//
// A change to the system moves a reference millisecond exactly as it
// moves a CPU millisecond; the machine's mood moves it much less. The raw
// CPU times are printed next to them.

// refNominalMS is the unit's CPU time on this sandbox in its quiet mood;
// it only fixes the scale, so that a reference millisecond is about a
// millisecond.
const refNominalMS = 1.2

// refUnit is the work: string-keyed map lookups, JSON encoding and a
// pointer-chasing walk over a table larger than L2 — what the KB's own
// code spends its time on.
type refUnit struct {
	keys  []string
	index map[string]float64
	next  []int32
	sink  float64
}

func newRefUnit() *refUnit {
	u := &refUnit{index: map[string]float64{}}
	for i := 0; i < 20000; i++ {
		k := "Rel_X(" + strconv.Itoa(i) + "," + strconv.Itoa(i*7) + ")"
		u.keys = append(u.keys, k)
		u.index[k] = float64(i) / 20000
	}
	n := 1 << 20 // 4 MB of int32: beyond L2
	u.next = make([]int32, n)
	x := uint64(88172645463325252)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		u.next[perm[i]] = perm[(i+1)%n]
	}
	return u
}

func (u *refUnit) work() {
	type row struct {
		Key string  `json:"key"`
		P   float64 `json:"p"`
	}
	s := u.sink
	rows := make([]row, 0, 64)
	for i := 0; i < 2000; i++ {
		k := u.keys[(i*31+int(s))%len(u.keys)]
		p := u.index[k]
		if i%32 == 0 {
			rows = append(rows, row{k, p})
		}
		s += p
	}
	b, err := json.Marshal(rows)
	if err != nil {
		panic(err) // strings and floats always marshal
	}
	at := int32(int(s) % len(u.next))
	for i := 0; i < 3000; i++ {
		at = u.next[at]
	}
	u.sink = s + float64(len(b)) + float64(at%7)
}

// run does one unit on the calling goroutine and returns its CPU time in
// ms, read off the process's CPU clock: for callers that run nothing else
// meanwhile (the in-process workloads, the handler loop).
func (u *refUnit) run() float64 {
	c := cpuClock(0)
	u.work()
	return ms(cpuClock(0) - c)
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refSampler runs the unit on a thread of its own every interval, beside
// a server that is busy with other work, and times it on that thread's
// CPU clock.
type refSampler struct {
	mu       sync.Mutex
	cpu      []float64
	stop     chan struct{}
	finished chan struct{}
}

func startRefSampler(u *refUnit, interval time.Duration) *refSampler {
	s := &refSampler{stop: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(s.finished)
		runtime.LockOSThread() // the thread ends with the goroutine
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			c := threadCPU()
			u.work()
			d := ms(threadCPU() - c)
			s.mu.Lock()
			s.cpu = append(s.cpu, d)
			s.mu.Unlock()
		}
	}()
	return s
}

// take returns the samples since the last take.
func (s *refSampler) take() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.cpu
	s.cpu = nil
	return out
}

func (s *refSampler) finish() { close(s.stop); <-s.finished }

// refMS converts CPU milliseconds to reference milliseconds given the
// unit's CPU times over the same stretch of the run (their median; no
// samples, no conversion).
func refMS(cpuMS float64, unit []float64) float64 {
	if len(unit) == 0 {
		return cpuMS
	}
	m := (&samples{v: append([]float64(nil), unit...)}).median()
	if m <= 0 {
		return cpuMS
	}
	return cpuMS * refNominalMS / m
}
