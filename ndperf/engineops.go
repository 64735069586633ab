package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// suiteOps is the engine path shared by suite-crowd and sweep-exact: one
// op is RunSuite followed by WriteJSON into memory, as ndscen does. With a
// tracer it also records the engine and report layer samples of the op.
type suiteOps struct {
	label string

	mu         sync.Mutex
	busy       []float64
	peakKB     []float64
	hits, miss int64
	finishP50  []float64
	finishMax  []float64
	encodeMS   []float64
	docKB      []float64
}

func (s *suiteOps) run(scenarios []engine.Scenario, opt engine.Options, tr *tracer, opID int64) (engine.SuiteResult, error) {
	var m obs.RunMetrics
	opt.Workers, opt.Metrics = engineWorkers, &m
	root := tr.begin("op", 0, opID)
	runSpan := tr.begin("engine.RunSuite", root, opID)
	var finish []float64
	var fmu sync.Mutex
	start := time.Now()
	if tr != nil {
		opt.PointResult = func(int, engine.Aggregate) {
			tr.mark("engine.point", runSpan, opID)
			fmu.Lock()
			finish = append(finish, ms(time.Since(start)))
			fmu.Unlock()
		}
	}
	aggs, err := engine.RunSuite(scenarios, opt)
	tr.finish(runSpan)
	if err != nil {
		tr.finish(root)
		return engine.SuiteResult{}, err
	}
	encSpan := tr.begin("report.WriteJSON", root, opID)
	t0 := time.Now()
	var buf bytes.Buffer
	res := engine.SuiteResult{Suite: s.label, Scenarios: aggs, Runtime: &m}
	err = engine.WriteJSON(&buf, res)
	encMS := ms(time.Since(t0))
	tr.finish(encSpan)
	tr.finish(root)
	if err != nil {
		return engine.SuiteResult{}, err
	}
	if tr != nil {
		s.mu.Lock()
		s.busy = append(s.busy, mean(m.WorkerBusy))
		s.peakKB = append(s.peakKB, float64(m.PeakAccumBytes)/1024)
		s.hits += m.BuildCache.Hits
		s.miss += m.BuildCache.Misses
		s.finishP50 = append(s.finishP50, median(finish))
		s.finishMax = append(s.finishMax, maxOf(finish))
		s.encodeMS = append(s.encodeMS, encMS)
		s.docKB = append(s.docKB, float64(buf.Len())/1024)
		s.mu.Unlock()
	}
	return res, nil
}

// layers reports the engine and report samples of the traced ops.
func (s *suiteOps) layers(m metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.busy)
	m.set("engine.worker_busy", median(s.busy), "ratio", n)
	m.set("engine.peak_accum_kb", median(s.peakKB), "KiB", n)
	m.set("engine.build_cache.hit_ratio", ratio(s.hits, s.hits+s.miss), "ratio", n)
	m.set("engine.point_finish_ms.p50", median(s.finishP50), "ms", n)
	m.set("engine.point_finish_ms.max", median(s.finishMax), "ms", n)
	m.set("report.encode_ms", median(s.encodeMS), "ms", n)
	m.set("report.kb", median(s.docKB), "KiB", n)
}

// runOps repeats a sequential op until the deadline. op is the timed part;
// check, untimed, verifies the op's output and returns the work it did.
// The first warmup ops are discarded; with a tracer, even ops are traced
// and odd ones not, so the two medians give the tracing overhead. Metrics
// are taken over the ops that started in quiet segments (window.go);
// failures count wherever they happen.
func runOps(deadline time.Time, tr *tracer, warmup int, unit string,
	op func(i int, tr *tracer) (engine.SuiteResult, error),
	check func(engine.SuiteResult) (float64, error)) *loopStats {
	type opRecord struct {
		start  time.Time
		traced bool
		r      probeResult
		work   float64
		err    error
	}
	var recs []opRecord
	win := startWindow()
	for i := 0; time.Now().Before(deadline); i++ {
		traced := tr != nil && i%2 == 0
		var opTr *tracer
		if traced {
			opTr = tr
		}
		runtime.GC()
		p := beginProbe()
		res, err := op(i, opTr)
		r := p.end()
		if i < warmup {
			continue
		}
		rec := opRecord{start: p.wall0, traced: traced, r: r, err: err}
		if err == nil {
			rec.work, rec.err = check(res)
		}
		recs = append(recs, rec)
	}
	segs := win.finish()

	st := &loopStats{unit: unit}
	windowSummary(st, segs)
	for i, rec := range recs {
		st.attempted++
		if rec.err != nil {
			st.failed++
			fmt.Printf("# op %d failed: %v\n", warmup+i, rec.err)
			continue
		}
		if k := segmentAt(segs, rec.start); k < 0 || !segs[k].quiet {
			continue
		}
		if rec.traced {
			st.tracedLatMS = append(st.tracedLatMS, ms(rec.r.Wall))
		} else {
			st.latMS = append(st.latMS, ms(rec.r.Wall))
		}
		st.ops++
		st.work += rec.work
		st.wall += rec.r.Wall
		st.cpu += rec.r.CPU
		st.allocBytes += rec.r.AllocBytes
		st.gcs += rec.r.GCs
	}
	return st
}

// strippedDoc is the result's deterministic content: its JSON encoding
// without the runtime sections.
func strippedDoc(res engine.SuiteResult) ([]byte, error) {
	res.Runtime = nil
	res.Scenarios = append([]engine.Aggregate(nil), res.Scenarios...)
	res.StripRuntime()
	var buf bytes.Buffer
	err := engine.WriteJSON(&buf, res)
	return buf.Bytes(), err
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// mix64 is the splitmix64 finalizer of a + (b+1)·φ: a cheap, well-mixed
// hash for deriving per-item seeds and draws from the workload seed.
func mix64(a, b uint64) uint64 {
	x := a + 0x9e3779b97f4a7c15*(b+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
