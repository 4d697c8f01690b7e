package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibNS times a fixed integer spin loop. It is the same work on every
// call, so two readings taken around a timed region differ only by what
// the host did to this process in between (frequency scaling, a noisy
// neighbour); the noise guard compares them.
func calibNS() float64 {
	const iters = 20_000_000
	best := time.Duration(1<<63 - 1)
	for try := 0; try < 3; try++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best.Nanoseconds())
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or
// Getrusage's Maxrss where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapMark is a reading of the allocation counters; sub gives the bytes
// and objects allocated between two readings.
type heapMark struct{ bytes, objects uint64 }

func markHeap() heapMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapMark{ms.TotalAlloc, ms.Mallocs}
}

func (m heapMark) sub(o heapMark) (bytes, objects float64) {
	return float64(m.bytes - o.bytes), float64(m.objects - o.objects)
}

// liveHeapMB is the heap still in use after a forced collection: what
// the program's state (a cache's index, a server) keeps alive, without
// the garbage whose amount at any instant depends on when the collector
// last ran.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostInfo identifies the machine a result file was measured on.
type hostInfo struct {
	NumCPU    int    `json:"nproc"`
	CPU       string `json:"cpu"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func readHostInfo() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}
