package main

import (
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process's own counters.
type procSample struct {
	cpu   time.Duration // user + system
	gcCPU float64       // seconds, the runtime's estimate
	alloc uint64        // cumulative heap bytes allocated
}

func readProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return procSample{
		cpu:   time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)),
		gcCPU: s[0].Value.Float64(),
		alloc: s[1].Value.Uint64(),
	}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func (s procSample) minus(o procSample) procSample {
	return procSample{cpu: s.cpu - o.cpu, gcCPU: s.gcCPU - o.gcCPU, alloc: s.alloc - o.alloc}
}

// releaseMemory returns a discarded stack's memory to the system, so that
// the peak resident set reflects the stack that is measured rather than the
// repeated set-ups before it.
func releaseMemory() { debug.FreeOSMemory() }

func (s procSample) plus(o procSample) procSample {
	return procSample{cpu: s.cpu + o.cpu, gcCPU: s.gcCPU + o.gcCPU, alloc: s.alloc + o.alloc}
}
