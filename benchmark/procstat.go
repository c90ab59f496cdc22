package main

import (
	"bytes"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusageCPU is user+system CPU seconds in a getrusage record.
func rusageCPU(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfCPU is this process's user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// peakRSSMB is a process's peak resident set in MB: the VmHWM line of
// /proc/<pid>/status ("self" for this process), 0 if it cannot be
// read. getrusage's ru_maxrss will not do for a child: it survives
// exec, so a freshly started server would report the resident set of
// the benchmark that forked it.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(data, []byte("VmHWM:"))
	if !ok {
		return 0
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(string(bytes.TrimSpace(line)), "kB")), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// resetPeakRSS returns this process's freed memory to the system and
// restarts its peak resident set from what is left, so a sweep round
// that runs after another in one process reports its own peak as a
// fresh process would. Where the kernel refuses, the peak stays that
// of the process so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// gcCPU reads the runtime's cumulative CPU split: seconds spent in
// the garbage collector and in total.
func gcCPU() (gcS, totalS float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() != metrics.KindFloat64 || samples[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// stopwatch times one interval in wall and process CPU.
type stopwatch struct {
	t0   time.Time
	cpu0 float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), selfCPU()} }

func (s stopwatch) stop() (wallS, cpuS float64) {
	return time.Since(s.t0).Seconds(), selfCPU() - s.cpu0
}
