package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geoMeanOfMedians summarizes timings of several cases of unequal cost
// (presets, runtimes): the median of each case, then the geometric
// mean across cases. Every run holds the same cases in equal numbers,
// so a plain median of the pooled samples would sit on the boundary
// between two cases and move with the noise of those two alone.
func geoMeanOfMedians(byCase map[string][]float64) float64 {
	if len(byCase) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, k := range sortedKeys(byCase) {
		logSum += math.Log(median(byCase[k]))
	}
	return math.Exp(logSum / float64(len(byCase)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocMB returns the cumulative heap allocation of the process in MB.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// rssMB reads the resident set size of the process from
// /proc/self/status, in MB (0 when the file is unavailable).
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("VmRSS:")) {
			continue
		}
		f := bytes.Fields(line[len("VmRSS:"):])
		if len(f) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(f[0]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rssSampler records the peak resident set size while it runs. The
// kernel's own high-water mark covers the whole process lifetime,
// set-up included; sampling bounds the window to the measured leg.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak float64
}

// startRSS samples the resident set every 10 ms until Stop.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: rssMB()}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v := rssMB(); v > s.peak {
					s.peak = v
				}
			}
		}
	}()
	return s
}

// Stop ends sampling, waits for the sampler to exit and returns the
// peak resident set in MB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	s.done.Wait()
	if v := rssMB(); v > s.peak {
		s.peak = v
	}
	return s.peak
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
