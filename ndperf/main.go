// Command ndperf is the repository's end-to-end and per-layer benchmark.
// It drives the engine and the ndd service through their public Go and
// HTTP interfaces on one of three seeded workloads and prints, as its last
// line of output, one JSON object with the run's metrics:
//
//	bash ndperf/run.sh --workload suite-crowd --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (set-up time, median and
// p90 latency, throughput, CPU and heap bytes per op); with --trace 1 it
// records spans around every layer call and reports per-layer metrics
// instead. Outputs are checked in the same run, and any mismatch makes the
// command exit non-zero. DESIGN.md explains the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Every run pins its concurrency so no number depends on the host's core
// count: two engine workers, and at most two client goroutines.
const (
	engineWorkers = 2
	clients       = 2
	// setupReps is how many fresh processes measure set-up time; the
	// reported setup_s is their median.
	setupReps = 9
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string
}

// workload is one seeded input set and the op the benchmark repeats on it.
type workload interface {
	// setup does the one-time work a user pays before the first op.
	setup() error
	// loop repeats the op until the deadline and reports what it measured;
	// with a tracer it also records spans and alternates traced and
	// untraced ops, so the tracing overhead can be read off the two.
	loop(deadline time.Time, tr *tracer) (*loopStats, error)
	// verify runs the untimed correctness checks that need more than the
	// per-op comparisons done inside loop.
	verify() error
	// layers adds the per-layer metrics (traced runs only): those the
	// workload measured on its own path, and the panels for the layers it
	// does not pass through.
	layers(m metrics) error
	close()
}

var workloads = map[string]func(cfg config) workload{
	"suite-crowd": newSuiteCrowd,
	"sweep-exact": newSweepExact,
	"ndd-mix":     newNddMix,
}

// loopStats is what one timed loop measured.
type loopStats struct {
	unit        string    // the work unit of throughput_per_s
	latMS       []float64 // per-op wall time, untraced ops after warm-up
	tracedLatMS []float64 // per-op wall time of traced ops
	attempted   int
	failed      int
	ops         int           // ops the per-op CPU/alloc/GC figures divide by
	work        float64       // work units completed by those ops
	wall        time.Duration // wall time the work took
	cpu         time.Duration
	allocBytes  uint64
	gcs         uint32

	// The window: segments measured, quiet segments the metrics come
	// from, and hypervisor steal over all of them and over the quiet ones.
	segs, quietSegs         int
	stealPct, quietStealPct float64
}

// metric is one reported figure; n is the sample count behind it, printed
// in the human-readable table but not in the JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit, n: n}
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var traceFlag int
	var setupOnly bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: suite-crowd, sweep-exact or ndd-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = record spans and report per-layer metrics")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build/ndperf", "directory for temporary files and span dumps")
	flag.BoolVar(&setupOnly, "setup-only", false, "run the workload's set-up, print \"ready\" and exit (set-up time probe)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	mk, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "ndperf: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ndperf:", err)
		return 2
	}
	if setupOnly {
		return runSetupOnly(mk(cfg))
	}

	out := metrics{}
	var setupSamples []float64
	if !cfg.trace {
		var err error
		if setupSamples, err = probeSetup(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "ndperf: set-up probe:", err)
			return 1
		}
	}

	w := mk(cfg)
	defer w.close()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "ndperf: set-up:", err)
		return 1
	}
	fmt.Printf("# %s seed=%d: in-process set-up %.3f s\n", cfg.workload, cfg.seed, time.Since(t0).Seconds())

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	runtime.GC()
	cal0 := calibrate(15)
	st, err := w.loop(time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndperf: loop:", err)
		return 1
	}
	cal1 := calibrate(15)
	fmt.Printf("# host reference ms (lower = faster host): before=%.4f after=%.4f\n", cal0, cal1)
	correct := st.failed == 0
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "ndperf: verify:", err)
		correct = false
	}

	if cfg.trace {
		if err := w.layers(out); err != nil {
			fmt.Fprintln(os.Stderr, "ndperf: per-layer metrics:", err)
			correct = false
		}
		traceMetrics(out, st)
		out.set("proc.ref_ms", (cal0+cal1)/2, "ms", 30)
		fmt.Print(tr.report())
		path := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "ndperf: writing spans:", err)
		} else {
			fmt.Printf("# spans written to %s\n", path)
		}
	} else {
		endToEnd(out, st, setupSamples)
	}
	printTable(out, st)

	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, st.attempted, st.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct || st.attempted == 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd derives the user-visible metrics from the untraced loop.
func endToEnd(m metrics, st *loopStats, setup []float64) {
	n := len(st.latMS)
	m.set("setup_s", median(setup), "s", len(setup))
	m.set("latency_ms", median(st.latMS), "ms", n)
	m.set("latency_p90_ms", quantile(st.latMS, 0.9), "ms", n)
	m.set("throughput_per_s", st.work/st.wall.Seconds(), "1/s", st.ops)
	m.set("cpu_ms_per_op", ms(st.cpu)/float64(st.ops), "ms", st.ops)
	m.set("alloc_kb", float64(st.allocBytes)/1024/float64(st.ops), "KiB", st.ops)
}

// traceMetrics adds the diagnostics every traced run reports.
func traceMetrics(m metrics, st *loopStats) {
	m.set("proc.steal_pct", st.stealPct, "%", st.segs)
	m.set("proc.quiet_segment_ratio", float64(st.quietSegs)/float64(st.segs), "ratio", st.segs)
	m.set("proc.gc_per_op", float64(st.gcs)/float64(st.ops), "count", st.ops)
	m.set("proc.cpu_wall_ratio", st.cpu.Seconds()/st.wall.Seconds(), "ratio", 1)
	untraced := median(st.latMS)
	m.set("trace.overhead_pct", 100*(median(st.tracedLatMS)-untraced)/untraced, "%", len(st.tracedLatMS))
}

func printTable(m metrics, st *loopStats) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %-34s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		fmt.Printf("# %-34s %14.6g %-6s %8d\n", n, m[n].Value, m[n].Unit, m[n].n)
	}
	fmt.Printf("# latency ms: min=%.4g p10=%.4g p50=%.4g p90=%.4g max=%.4g\n",
		quantile(st.latMS, 0), quantile(st.latMS, 0.1), median(st.latMS), quantile(st.latMS, 0.9), quantile(st.latMS, 1))
	errRate := 0.0
	if st.attempted > 0 {
		errRate = float64(st.failed) / float64(st.attempted)
	}
	fmt.Printf("# ops attempted=%d failed=%d error_rate=%g; throughput unit: %s/s; quiet segments %d/%d (steal %.2f%% used, %.2f%% all); cpu/wall=%.3f gc/op=%.3f\n",
		st.attempted, st.failed, errRate, st.unit, st.quietSegs, st.segs, st.quietStealPct, st.stealPct,
		st.cpu.Seconds()/st.wall.Seconds(), float64(st.gcs)/float64(st.ops))
}

// probeSetup measures set-up time in fresh processes, so every sample pays
// the cold costs a user pays: process start, registry init and cold
// schedule builds. Each sample runs from process start to the child's
// "ready" line. As for the loop (window.go), samples taken while the
// hypervisor stole more than quietStealPct are set aside unless that would
// leave fewer than a third of them.
func probeSetup(cfg config) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	type setupSample struct{ secs, stealPct float64 }
	var samples []setupSample
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "--setup-only", "--workload", cfg.workload,
			"--seed", fmt.Sprint(cfg.seed), "--scratch", cfg.scratch)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		stat0, t0 := readCPUStat(), time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		d, stat1 := time.Since(t0), readCPUStat()
		waitErr := cmd.Wait()
		if readErr != nil || strings.TrimSpace(line) != "ready" || waitErr != nil {
			return nil, fmt.Errorf("set-up child: line %q, read %v, exit %v", line, readErr, waitErr)
		}
		smp := setupSample{secs: d.Seconds()}
		if dt := stat1.total - stat0.total; dt > 0 {
			smp.stealPct = 100 * float64(stat1.steal-stat0.steal) / float64(dt)
		}
		samples = append(samples, smp)
	}
	sort.SliceStable(samples, func(a, b int) bool { return samples[a].stealPct < samples[b].stealPct })
	var used []float64
	for i, smp := range samples {
		if smp.stealPct <= quietStealPct || i < (len(samples)+minQuietShare-1)/minQuietShare {
			used = append(used, smp.secs)
		}
	}
	fmt.Printf("# set-up samples (s, steal %%): %v; %d used\n", samples, len(used))
	return used, nil
}

func runSetupOnly(w workload) int {
	defer w.close()
	if err := w.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "ndperf: set-up:", err)
		return 1
	}
	fmt.Println("ready")
	return 0
}
