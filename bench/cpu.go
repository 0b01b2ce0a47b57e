package main

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// cpuClock reads a process's CPU-time clock: the time its threads have
// spent running, to the nanosecond (pid 0 is this process). It is the
// harness's second stopwatch. The sandbox's wall clock charges an
// operation for whatever the hypervisor did meanwhile — a vCPU left
// halted for a millisecond after an interrupt, a neighbour's burst — and
// those charges change by the minute and by a factor of two to four for
// anything that crosses processes. The CPU clock charges it only for the
// instructions the process ran, which is the part a change to the
// repository's code moves. See README.md, "Two stopwatches".
func cpuClock(pid int) time.Duration {
	id := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		id = uintptr((^pid)<<3 | 2) // the kernel's encoding of "process pid's CPU clock"
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuMeter samples a process's CPU clock against a count of completed
// operations while a load phase runs, so the phase can be cut into slices
// afterwards and each slice's CPU per operation taken.
type cpuMeter struct {
	pid      int
	done     atomic.Int64
	stop     chan struct{}
	finished chan struct{}
	cpu      []time.Duration
	ops      []int64
}

// startCPUMeter samples every interval until finish.
func startCPUMeter(pid int, interval time.Duration) *cpuMeter {
	m := &cpuMeter{pid: pid, stop: make(chan struct{}), finished: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *cpuMeter) sample() {
	m.cpu = append(m.cpu, cpuClock(m.pid))
	m.ops = append(m.ops, m.done.Load())
}

// finish takes a last sample and stops.
func (m *cpuMeter) finish() { close(m.stop); <-m.finished }

// perOp cuts the phase into consecutive slices of at least minOps
// completed operations and returns each slice's CPU milliseconds per
// operation; the operations that did not fill a last slice are left out.
// A phase too short for one slice is one slice.
func (m *cpuMeter) perOp(minOps int64) samples {
	var out samples
	from := 0
	for i := range m.ops {
		if n := m.ops[i] - m.ops[from]; n >= minOps {
			out.add(ms(m.cpu[i]-m.cpu[from]) / float64(n))
			from = i
		}
	}
	last := len(m.ops) - 1
	if n := m.ops[last] - m.ops[0]; out.n() == 0 && n > 0 {
		out.add(ms(m.cpu[last]-m.cpu[0]) / float64(n))
	}
	return out
}
