package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB returns the process's VmHWM in MB (10^6 bytes).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// freshPass returns memory to the OS and resets VmHWM (Linux
// clear_refs), so a pass's peak RSS is its own even when an earlier pass
// ran in the same process.
func freshPass() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// betweenPasses collects the previous pass's garbage, keeping the heap
// for the next pass, and resets VmHWM.
func betweenPasses() {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime reads the time the hypervisor has stolen from this VM's
// vCPUs (the steal column of /proc/stat, summed over vCPUs, in USER_HZ
// = 100 ticks per second). On a shared host it is the dominant noise in
// wall time: a run that loses 20% of its vCPU time to neighbours reads
// 20% slower whatever the code does. Wall-time throughputs of phases that
// keep every vCPU busy subtract it, divided by the vCPU count, and so do
// setup times: a mostly single-threaded setup loses, on average, one
// vCPU's share of the steal.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// unstolen is the wall time d minus the steal time of the same interval
// shared over the vCPUs.
func unstolen(d, steal time.Duration) time.Duration {
	return d - steal/time.Duration(runtime.NumCPU())
}

// llcBytes reads the last-level cache size the kernel reports for CPU 0.
func llcBytes() uint64 {
	var best uint64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mul := uint64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mul, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mul, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v*mul > best {
			best = v * mul
		}
	}
	return best
}

// goStats is a runtime/metrics reading: the go layer's counters.
type goStats struct {
	at        time.Time
	gcCycles  uint64
	allocB    uint64
	pauseSecs float64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	st := goStats{at: time.Now()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		st.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		st.allocB = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		st.pauseSecs = histSum(s[2].Value.Float64Histogram())
	}
	return st
}

// histSum estimates a runtime/metrics histogram's total from bucket
// midpoints (the runtime exposes no exact sum for pause times).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// setGoLayer reports the go layer over the window [a, b].
func setGoLayer(r *run, a, b goStats) {
	r.set("go.gc_pause_ms.total", (b.pauseSecs-a.pauseSecs)*1e3)
	r.set("go.gc_cycles", float64(b.gcCycles-a.gcCycles))
	if d := b.at.Sub(a.at).Seconds(); d > 0 {
		r.set("go.alloc_mb_per_s", float64(b.allocB-a.allocB)/1e6/d)
	}
}
