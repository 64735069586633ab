package main

import (
	"runtime"
	"sort"
	"time"
)

// The measuring window is cut into one-second segments, and the end-to-end
// metrics are taken over the quiet ones. On a shared VM the hypervisor
// steals CPU in bursts of a few seconds (2–20% per half second was seen in
// otherwise calm runs); a segment whose steal stays at or below
// quietStealPct is quiet. When quiet segments span less than a third of
// the window, the quietest third is used instead, so a run always reports
// on at least a third of what it measured. Every run prints how many
// segments it used and their steal beside the whole window's.
const (
	segmentLen    = time.Second
	quietStealPct = 3.0
	// minQuietShare: at least 1/minQuietShare of the window (or of the
	// set-up samples) is always used.
	minQuietShare = 3
)

// sample is the host and process counters at one instant.
type sample struct {
	t     time.Time
	stat  cpuStat
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func takeSample() sample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return sample{t: time.Now(), stat: readCPUStat(), cpu: cpuTime(), alloc: m.TotalAlloc, gcs: m.NumGC}
}

// segment is one slice of the window with what the process spent in it.
type segment struct {
	start, end time.Time
	stealPct   float64
	cpu        time.Duration
	alloc      uint64
	gcs        uint32
	quiet      bool
}

// window samples the counters once per segment while a loop runs.
type window struct {
	samples []sample // appended by the sampling goroutine until done closes
	stop    chan struct{}
	done    chan struct{}
}

func startWindow() *window {
	w := &window{samples: []sample{takeSample()}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(segmentLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.samples = append(w.samples, takeSample())
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

// finish stops sampling and returns the window's segments with the quiet
// ones marked.
func (w *window) finish() []segment {
	close(w.stop)
	<-w.done
	s := append(w.samples, takeSample())
	segs := make([]segment, 0, len(s)-1)
	for i := 0; i+1 < len(s); i++ {
		a, b := s[i], s[i+1]
		seg := segment{start: a.t, end: b.t, cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, gcs: b.gcs - a.gcs}
		if dt := b.stat.total - a.stat.total; dt > 0 {
			seg.stealPct = 100 * float64(b.stat.steal-a.stat.steal) / float64(dt)
		}
		segs = append(segs, seg)
	}
	var quiet time.Duration
	for i := range segs {
		if segs[i].stealPct <= quietStealPct {
			segs[i].quiet = true
			quiet += segs[i].end.Sub(segs[i].start)
		}
	}
	if total := s[len(s)-1].t.Sub(s[0].t); quiet < total/minQuietShare {
		order := make([]int, len(segs))
		for i := range order {
			order[i] = i
			segs[i].quiet = false
		}
		sort.SliceStable(order, func(a, b int) bool { return segs[order[a]].stealPct < segs[order[b]].stealPct })
		quiet = 0
		for _, i := range order {
			if quiet >= total/minQuietShare {
				break
			}
			segs[i].quiet = true
			quiet += segs[i].end.Sub(segs[i].start)
		}
	}
	return segs
}

// segmentAt returns the index of the segment holding t, or -1.
func segmentAt(segs []segment, t time.Time) int {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].end.After(t) })
	if i == len(segs) || t.Before(segs[i].start) {
		return -1
	}
	return i
}

// windowSummary records, on the loop's stats, the steal over the whole
// window and over the quiet segments used.
func windowSummary(st *loopStats, segs []segment) {
	var all, used float64
	var allT, usedT time.Duration
	for _, s := range segs {
		d := s.end.Sub(s.start)
		all += s.stealPct * float64(d)
		allT += d
		if s.quiet {
			used += s.stealPct * float64(d)
			usedT += d
			st.quietSegs++
		}
	}
	st.segs = len(segs)
	if allT > 0 {
		st.stealPct = all / float64(allT)
	}
	if usedT > 0 {
		st.quietStealPct = used / float64(usedT)
	}
}
