package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime reports the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is one read of the Go runtime's own counters.
type runtimeSample struct {
	heapLive float64 // bytes marked live by the last GC
	gcCPU    float64 // seconds of CPU spent in the GC
	gcCycles float64
	alloc    float64 // cumulative bytes allocated on the heap
}

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{heapLive: v(0), gcCPU: v(1), gcCycles: v(2), alloc: v(3)}
}

// heapLive reads only the live-heap gauge, cheap enough for every op
// boundary.
func heapLive() float64 {
	s := []metrics.Sample{{Name: runtimeNames[0]}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. NaN for no data.
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

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
