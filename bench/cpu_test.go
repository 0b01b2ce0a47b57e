package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// The CPU clock advances with work done, not with time slept, and a
// child's clock is readable from here.
func TestCPUClockCountsWorkNotSleep(t *testing.T) {
	c0 := cpuClock(0)
	time.Sleep(30 * time.Millisecond)
	slept := cpuClock(0) - c0
	c0 = cpuClock(0)
	x := 0.0
	for start := time.Now(); time.Since(start) < 30*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	worked := cpuClock(0) - c0
	if worked < 15*time.Millisecond {
		t.Errorf("30 ms of spinning advanced the CPU clock by %v (sink %v)", worked, x)
	}
	if slept > worked/2 {
		t.Errorf("30 ms asleep advanced the CPU clock by %v, 30 ms of work by %v", slept, worked)
	}
	if got := cpuClock(os.Getpid()); got <= 0 {
		t.Errorf("reading a process's CPU clock by pid returned %v", got)
	}
}

// Slices close once they hold the asked number of operations; each one's
// figure is its own CPU ÷ its own operations, and a last partial slice is
// left out.
func TestCPUMeterPerOpSlices(t *testing.T) {
	m := &cpuMeter{
		cpu: []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond, 60 * time.Millisecond, 61 * time.Millisecond},
		ops: []int64{0, 2, 4, 10, 11},
	}
	got := m.perOp(4)
	// samples 0→2: 4 ops, 30 ms; 2→3: 6 ops, 30 ms; 3→4: 1 op, dropped.
	if got.n() != 2 || got.v[0] != 7.5 || got.v[1] != 5 {
		t.Errorf("perOp(4) = %v, want [7.5 5]", got.v)
	}
	// A phase too short for one slice is one slice.
	if short := m.perOp(100); short.n() != 1 || math.Abs(short.v[0]-61.0/11) > 1e-9 {
		t.Errorf("perOp(100) = %v, want [%v]", short.v, 61.0/11)
	}
	idle := &cpuMeter{cpu: []time.Duration{0, time.Millisecond}, ops: []int64{0, 0}}
	if none := idle.perOp(1); none.n() != 0 {
		t.Error("a phase that completed nothing must report no slices")
	}
}

func TestCPUMeterSamplesWhileRunning(t *testing.T) {
	m := startCPUMeter(0, 2*time.Millisecond)
	for i := 0; i < 5; i++ {
		time.Sleep(3 * time.Millisecond)
		m.done.Add(1)
	}
	m.finish()
	if len(m.cpu) < 3 || len(m.cpu) != len(m.ops) {
		t.Fatalf("%d CPU samples, %d op samples", len(m.cpu), len(m.ops))
	}
	if last := m.ops[len(m.ops)-1]; last != 5 {
		t.Errorf("the closing sample saw %d operations, want 5", last)
	}
	for i := 1; i < len(m.cpu); i++ {
		if m.cpu[i] < m.cpu[i-1] || m.ops[i] < m.ops[i-1] {
			t.Fatalf("sample %d went backwards", i)
		}
	}
}
