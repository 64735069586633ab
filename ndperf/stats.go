package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" definition). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user+system CPU time so far (all threads).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the aggregate "cpu" line of /proc/stat: total jiffies over
// every state, and the share the hypervisor stole.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		for i, f := range fields[1:] {
			v, _ := strconv.ParseUint(f, 10, 64)
			// Fields 9 and 10 (guest, guest_nice) are already counted in
			// user and nice.
			if i < 8 {
				st.total += v
			}
			if i == 7 {
				st.steal = v
			}
		}
		return st
	}
	return cpuStat{}
}

// probe brackets one op: wall, process CPU, heap allocation and GC
// cycles between begin and end.
type probe struct {
	wall0  time.Time
	cpu0   time.Duration
	alloc0 uint64
	gc0    uint32
}

type probeResult struct {
	Wall       time.Duration
	CPU        time.Duration
	AllocBytes uint64
	GCs        uint32
}

func beginProbe() probe {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return probe{wall0: time.Now(), cpu0: cpuTime(), alloc0: m.TotalAlloc, gc0: m.NumGC}
}

func (p probe) end() probeResult {
	wall := time.Since(p.wall0)
	cpu := cpuTime() - p.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return probeResult{Wall: wall, CPU: cpu, AllocBytes: m.TotalAlloc - p.alloc0, GCs: m.NumGC - p.gc0}
}

// calibrate times a fixed, program-independent reference computation —
// dependent random reads and writes over a 16 MiB table, so it feels
// cache and memory-bandwidth contention as the workloads do — and returns
// the median of reps samples in ms. Printed beside every run, it shows how
// fast the host was while the run measured.
func calibrate(reps int) float64 {
	table := make([]uint64, 2<<20)
	var samples []float64
	x := uint64(1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < 1<<17; i++ {
			x = x*0x9e3779b97f4a7c15 + 1
			j := (x >> 20) % uint64(len(table))
			table[j] += x
			x ^= table[(j*7919)%uint64(len(table))]
		}
		samples = append(samples, float64(time.Since(t0))/1e6)
	}
	calibSink += x
	return median(samples)
}

// calibSink keeps the reference loop's result live.
var calibSink uint64
