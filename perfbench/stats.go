package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUS returns the q-quantile (nearest rank) of ns samples in
// microseconds. It sorts lat in place.
func percentileUS(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	i := int(q*float64(len(lat))+0.5) - 1
	i = min(max(i, 0), len(lat)-1)
	return float64(lat[i]) / 1e3
}

// resources is a snapshot of the process's CPU, allocation and GC
// counters; since turns two snapshots into a delta.
type resources struct {
	cpu        time.Duration // user + system, all threads
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	residentMB float64 // Go-managed memory mapped and not returned to the OS
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func readResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	resident := runtimeSamples[1].Value.Uint64() - runtimeSamples[2].Value.Uint64()
	return resources{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   uint64(ms.NumGC),
		gcCPU:      runtimeSamples[0].Value.Float64(),
		residentMB: float64(resident) / (1 << 20),
	}
}

func (r resources) since(r0 resources) resources {
	return resources{
		cpu:        r.cpu - r0.cpu,
		mallocs:    r.mallocs - r0.mallocs,
		allocBytes: r.allocBytes - r0.allocBytes,
		gcCycles:   r.gcCycles - r0.gcCycles,
		gcCPU:      r.gcCPU - r0.gcCPU,
		residentMB: r.residentMB,
	}
}

// mallocsDuring counts the heap allocations the whole process makes
// while f runs.
func mallocsDuring(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}
