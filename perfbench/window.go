package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// window measures the process between open and close: wall time, process
// CPU (every goroutine, shard handlers included, since the shards run in
// this process), Go allocation and GC counters, and the host's guest steal
// ticks.
type window struct {
	t0    time.Time
	cpu0  time.Duration
	rt0   []metrics.Sample
	steal int64
}

// windowResult is what a window saw.
type windowResult struct {
	elapsed, cpu  time.Duration
	heldRSS       float64 // MB, after the window and a forced collection
	allocs, bytes uint64
	gcCPU         float64 // seconds
	steal         int64   // ticks
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the aggregate guest steal ticks from /proc/stat; -1 when
// unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

func openWindow() window {
	return window{t0: time.Now(), cpu0: processCPU(), rt0: readRuntime(), steal: stealTicks()}
}

func (w window) close() windowResult {
	elapsed := time.Since(w.t0)
	cpu := processCPU() - w.cpu0
	rt := readRuntime()
	steal := stealTicks()
	r := windowResult{
		elapsed: elapsed,
		cpu:     cpu,
		allocs:  rt[0].Value.Uint64() - w.rt0[0].Value.Uint64(),
		bytes:   rt[1].Value.Uint64() - w.rt0[1].Value.Uint64(),
		gcCPU:   rt[2].Value.Float64() - w.rt0[2].Value.Float64(),
		steal:   -1,
	}
	if steal >= 0 && w.steal >= 0 {
		r.steal = steal - w.steal
	}
	runtime.GC()
	debug.FreeOSMemory()
	r.heldRSS = rssMB()
	return r
}

// rssMB is the current resident set from /proc/self/statm, in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB is the largest resident set the process has had, the kernel's
// VmHWM from /proc/self/status, in MB; 0 when unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
