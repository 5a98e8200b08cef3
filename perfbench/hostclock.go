package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host the benchmark runs on is shared: its speed drifts by tens of
// percent over minutes, and every host-time figure of a run drifts with
// it, as a fixed compute kernel timed beside the program shows. Each
// leg therefore times a fixed calibration kernel after each step and
// reports its host-time figures on a nominal host: a time is scaled by
// the leg's speed, calibNominal over the median kernel time, and a
// rate by its inverse. The run prints the raw figures beside them.
//
// The kernel runs on two locked OS threads at once, one per CPU of the
// 2-CPU host, as the flow scheduler and the daemon's two workers do.
// Each thread is timed by the wall clock less the time it spent
// runnable but waiting for a CPU, as the kernel's scheduler accounts it
// in /proc/thread-self/schedstat. Goroutines the program leaves running
// and its garbage collector compete with the kernel only by making its
// threads wait, so they are not charged to it, and a regression that
// adds such work shows in the figures instead of being scaled away. The
// kernel neither allocates nor writes pointers, so it does no collector
// assists and meets no write barriers. What the kernel does see is what
// other tenants do to the host: slower cores, contended shared caches,
// and time the hypervisor steals from a virtual CPU, which the guest
// cannot tell from running.

// calibNominal is about the kernel's time on the 2-vCPU x86-64 host the
// baseline in README.md was taken on, when lightly loaded.
const calibNominal = 4 * time.Millisecond

// calibThreads is the number of kernel threads run at once.
const calibThreads = 2

// calibBufs are the kernel threads' working sets: larger than a core's
// private caches, as the program's bitstream and artifact buffers are.
var calibBufs = func() [][]uint32 {
	out := make([][]uint32, calibThreads)
	for i := range out {
		out[i] = make([]uint32, 1<<20)
	}
	return out
}()

// calibKernel mixes dependent arithmetic with scattered and sequential
// reads and writes over buf.
func calibKernel(buf []uint32) uint32 {
	mask := uint32(len(buf) - 1)
	x, acc := uint32(2463534242), uint32(0)
	for i := uint32(0); i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		buf[x&mask] += acc
		acc = acc*31 + buf[(i*16)&mask]
	}
	return acc
}

// hostClock collects calibration samples.
type hostClock struct{ samples []float64 }

// sample runs the kernel once on each of calibThreads threads, started
// together, and records the mean of their charged times.
func (c *hostClock) sample() {
	times := make([]time.Duration, calibThreads)
	sums := make([]uint32, calibThreads)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			<-start
			w0, err0 := runDelay()
			t0 := time.Now()
			sums[i] = calibKernel(calibBufs[i])
			d := time.Since(t0)
			w1, err1 := runDelay()
			if err0 == nil && err1 == nil {
				d -= w1 - w0
			}
			times[i] = d
		}(i)
	}
	close(start)
	wg.Wait()
	var total time.Duration
	for i, d := range times {
		total += d
		calibSink += sums[i]
	}
	c.samples = append(c.samples, float64(total)/calibThreads)
}

// calibSink keeps the kernel's result alive.
var calibSink uint32

// speed returns calibNominal over the median kernel time: below 1 on a
// host slower than nominal.
func (c *hostClock) speed() float64 {
	return float64(calibNominal) / median(c.samples)
}

// runDelay returns the time the calling OS thread has spent runnable
// but waiting for a CPU.
func runDelay() (time.Duration, error) {
	data, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("schedstat: %q", data)
	}
	ns, err := strconv.ParseInt(f[1], 10, 64)
	return time.Duration(ns), err
}
