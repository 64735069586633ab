package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

const (
	nddWarmupJobs = 50
	// nddVerifyEvery: verify re-runs one distinct cold request in this
	// many in-process (and every popular request).
	nddVerifyEvery = 16
	// nddCacheRatioJobs is the prefix of cold jobs (in sequence order) the
	// engine build-cache hit ratio is taken over, so the figure does not
	// depend on how many jobs a run completed.
	nddCacheRatioJobs = 32
	// nddCodecJobs is how many of the sequence's first cold jobs the codec
	// layer is measured on.
	nddCodecJobs = 32
)

// popularJobs are the requests a busy daemon answers over and over: the
// Figure 7 suite, the η sweep, the adaptive η search and the quickstart
// pair in exact mode.
var popularJobs = []server.JobRequest{
	{Kind: "suite", Name: "paper-fig7"},
	{Kind: "sweep", Name: "sweep-eta"},
	{Kind: "adaptive", Name: "adaptive-eta"},
	{Kind: "scenario", Name: "quickstart", Exact: true},
}

// popularKeys are the POST bodies of popularJobs.
var popularKeys = func() map[string]bool {
	keys := map[string]bool{}
	for _, req := range popularJobs {
		keys[jobKey(req)] = true
	}
	return keys
}()

// jobKey is a request's POST body, which also serves as its identity.
func jobKey(req server.JobRequest) string {
	body, _ := json.Marshal(req)
	return string(body)
}

// nddJob is one entry of the seeded job sequence.
type nddJob struct {
	req server.JobRequest
	key string // jobKey(req)
}

// jobSeq is the seeded job sequence: ~80% repeats of the popular set,
// ~15% cold exact scenarios at fresh η, ~5% cold η sweeps at fresh seeds
// and drawn trial counts. It is generated on demand, and for a given seed
// it is the same whatever the client interleaving.
type jobSeq struct {
	seed uint64
	mu   sync.Mutex
	jobs []nddJob
	eta  *pointGen
	nEx  int
	nMC  int
	seen map[float64]bool
}

func newJobSeq(seed int64) *jobSeq {
	return &jobSeq{seed: uint64(seed), eta: newPointGen(seed), seen: map[float64]bool{}}
}

func (s *jobSeq) at(i int) nddJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) <= i {
		s.jobs = append(s.jobs, s.gen(len(s.jobs)))
	}
	return s.jobs[i]
}

func (s *jobSeq) gen(i int) nddJob {
	h := mix64(s.seed^0x6e6464, uint64(i))
	u := float64(h>>11) / (1 << 53)
	var req server.JobRequest
	switch {
	case u < 0.80:
		req = popularJobs[h%uint64(len(popularJobs))]
	case u < 0.95:
		var eta float64
		for {
			eta = round6(logUniform(s.eta.u(0, s.nEx), 0.01, 0.10))
			s.nEx++
			if !s.seen[eta] {
				break
			}
		}
		s.seen[eta] = true
		req = server.JobRequest{Kind: "scenario", Scenarios: []engine.Scenario{{
			Name:       fmt.Sprintf("cold-eta-%d", s.nEx),
			Protocol:   engine.ProtocolSpec{Kind: "optimal", Omega: omegaPaper, Alpha: 1, Eta: eta},
			Population: 2,
			Trials:     1,
			Horizon:    engine.HorizonSpec{WorstMultiple: 3},
			Seed:       int64(i),
			Exact:      true,
		}}}
	default:
		// The η sweep at a drawn trial count (8–71) and a fresh seed: new to
		// the result cache, while its schedules are warm.
		s.nMC++
		sp, _ := engine.SweepPreset("sweep-eta")
		sp.Base.Trials = 8 + int(h>>40)%64
		sp.Base.Seed = int64(mix64(s.seed, uint64(s.nMC)) >> 1)
		req = server.JobRequest{Kind: "sweep", Sweep: &sp}
	}
	return nddJob{req: req, key: jobKey(req)}
}

// jobOutcome is what one client saw of one job.
type jobOutcome struct {
	seq           int
	start         time.Time
	class         string // "hit", "cold-exact" or "cold-mc"
	latMS         float64
	submitMS      float64
	resultMS      float64
	queueWaitMS   float64
	finishMS      []float64 // SSE point events, from POST
	cache         obs.CacheStats
	busy          float64
	peakKB        float64
	traced        bool
	rejected      bool
	retries       int // submits or fetches repeated after an eviction
	cachedSubmits int // submits answered from the result cache
	err           error
}

// nddMix drives an in-process ndd daemon over loopback HTTP with two
// closed-loop clients.
type nddMix struct {
	cfg     config
	seq     *jobSeq
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	hitsAt0 int64

	mu       sync.Mutex
	answers  map[string][]answer // distinct documents served per request
	outcomes []jobOutcome
}

func newNddMix(cfg config) workload {
	return &nddMix{cfg: cfg, seq: newJobSeq(cfg.seed), answers: map[string][]answer{}}
}

// setup starts the daemon and makes the popular set resident in its
// result cache.
func (w *nddMix) setup() error {
	// The daemon runs in its default, journal-less mode. With a journal
	// every cold job writes and later deletes a directory of files, and on
	// an ext4 host with online discard those deletions slowed each
	// following run (sys time 3.7 s → 9.6 s over five 12 s runs); the
	// codec layer is measured in memory instead (codecMetrics).
	var err error
	w.srv, err = server.New(server.Config{Workers: engineWorkers})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 2 * clients, // a job holds at most two connections
		DisableCompression:  true,
	}}
	for _, req := range popularJobs {
		j := nddJob{req: req, key: jobKey(req)}
		if o := w.do(j, -1, nil); o.err != nil {
			return fmt.Errorf("popular job %s: %w", j.key, o.err)
		}
	}
	w.hitsAt0, err = w.cacheHits()
	return err
}

func (w *nddMix) cacheHits() (int64, error) {
	resp, err := w.client.Get(w.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		CacheHits int64 `json:"cache_hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return h.CacheHits, nil
}

// errEvicted marks a result fetch that found the job gone: the daemon's
// result cache evicts the oldest finished job (FIFO) and its id 404s from
// then on, which can happen between a submit answered from the cache and
// the fetch of its result. The client then submits again, as the API
// implies; the retry counts in the job's latency and in
// server.evicted_retries.
var errEvicted = errors.New("result evicted before it was fetched")

// maxAttempts bounds the submits one job may take.
const maxAttempts = 3

// do runs one job from POST to the last result byte: submit, follow the
// SSE stream to its terminal result event unless the submit was answered
// from the cache, then fetch the result document.
func (w *nddMix) do(j nddJob, seq int, tr *tracer) (o jobOutcome) {
	o.seq, o.traced = seq, tr != nil
	op := int64(seq + 2)
	root := tr.begin("ndd.job", 0, op)
	defer tr.finish(root)
	start := time.Now()
	o.start = start
	for attempt := 0; attempt < maxAttempts; attempt++ {
		o.err = w.attempt(j, start, &o, tr, root, op)
		if !errors.Is(o.err, errEvicted) {
			break
		}
		o.retries++
	}
	o.latMS = ms(time.Since(start))
	return o
}

// attempt is one submit → (events) → result round.
func (w *nddMix) attempt(j nddJob, start time.Time, o *jobOutcome, tr *tracer, root, op int64) error {
	sp := tr.begin("server.submit", root, op)
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", strings.NewReader(j.key))
	if err != nil {
		tr.finish(sp)
		return err
	}
	var st server.JobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.finish(sp)
	o.submitMS = ms(time.Since(t0))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		o.rejected = true
		return errors.New("429 queue full")
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	case decErr != nil:
		return fmt.Errorf("submit: %w", decErr)
	}

	switch {
	case st.Cached:
		o.class = "hit"
		o.cachedSubmits++
	case j.req.Exact || (len(j.req.Scenarios) > 0 && j.req.Scenarios[0].Exact):
		o.class = "cold-exact"
	default:
		o.class = "cold-mc"
	}
	ready := st.State == "done"
	var doc []byte
	for fetch := 0; ; fetch++ {
		if !ready {
			sp := tr.begin("server.events", root, op)
			state, err := w.follow(st.ID, start, o, tr, sp, op)
			tr.finish(sp)
			if err != nil {
				return err
			}
			if state != "done" {
				return fmt.Errorf("job %s ended %s", st.ID, state)
			}
		}
		sp := tr.begin("server.result", root, op)
		t0 := time.Now()
		resp, err := w.client.Get(w.base + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			tr.finish(sp)
			return err
		}
		doc, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		tr.finish(sp)
		o.resultMS = ms(time.Since(t0))
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return errEvicted
		case resp.StatusCode == http.StatusConflict && fetch+1 < maxAttempts:
			// Between the submit and this fetch the job was evicted and
			// resubmitted by the other client: the id now names a re-run
			// that has not finished. Wait for it like a cold job.
			o.retries++
			ready = false
			continue
		case err != nil || resp.StatusCode != http.StatusOK:
			return fmt.Errorf("result: HTTP %d: %v", resp.StatusCode, err)
		}
		break
	}
	w.record(j.key, doc)
	if o.class != "hit" {
		var rt struct {
			Runtime *obs.RunMetrics `json:"runtime"`
		}
		if err := json.Unmarshal(doc, &rt); err != nil || rt.Runtime == nil {
			return fmt.Errorf("result document without runtime section: %v", err)
		}
		o.queueWaitMS = rt.Runtime.QueueWaitMS
		o.cache = rt.Runtime.BuildCache
		o.busy = mean(rt.Runtime.WorkerBusy)
		o.peakKB = float64(rt.Runtime.PeakAccumBytes) / 1024
	}
	return nil
}

// follow reads the job's SSE stream until the terminal result event and
// returns the job's final state. Point events are timed from start.
func (w *nddMix) follow(id string, start time.Time, o *jobOutcome, tr *tracer, parent, op int64) (string, error) {
	resp, err := w.client.Get(w.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var name string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && name == "point":
			o.finishMS = append(o.finishMS, ms(time.Since(start)))
			tr.mark("engine.point", parent, op)
		case strings.HasPrefix(line, "data: ") && name == "result":
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return "", fmt.Errorf("result event: %w", err)
			}
			io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("event stream of job %s ended without a result event", id)
}

// answer is one distinct document served for a request: its digest, and
// the bytes themselves when verify will compare them.
type answer struct {
	sum [32]byte
	doc []byte
}

// verifyKey selects the requests verify re-runs in-process: every popular
// request and one cold request in nddVerifyEvery, by a hash of the
// request, so the selection does not depend on timing.
func verifyKey(key string) bool {
	if popularKeys[key] {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64(), 0)%nddVerifyEvery == 0
}

// record keeps each distinct document served for a request.
func (w *nddMix) record(key string, doc []byte) {
	sum := sha256.Sum256(doc)
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, a := range w.answers[key] {
		if a.sum == sum {
			return
		}
	}
	a := answer{sum: sum}
	if verifyKey(key) {
		a.doc = doc
	}
	w.answers[key] = append(w.answers[key], a)
}

func (w *nddMix) loop(deadline time.Time, tr *tracer) (*loopStats, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	win := startWindow()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				var jobTr *tracer
				if tr != nil && i%2 == 0 {
					jobTr = tr
				}
				o := w.do(w.seq.at(i), i, jobTr)
				w.mu.Lock()
				w.outcomes = append(w.outcomes, o)
				w.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	segs := win.finish()

	// Jobs count toward the metrics when they started in a quiet segment;
	// CPU, allocation and wall time are those of the quiet segments.
	w.mu.Lock()
	defer w.mu.Unlock()
	st := &loopStats{unit: "jobs"}
	windowSummary(st, segs)
	for _, s := range segs {
		if s.quiet {
			st.wall += s.end.Sub(s.start)
			st.cpu += s.cpu
			st.allocBytes += s.alloc
			st.gcs += s.gcs
		}
	}
	sort.Slice(w.outcomes, func(a, b int) bool { return w.outcomes[a].seq < w.outcomes[b].seq })
	for _, o := range w.outcomes {
		st.attempted++
		if o.err != nil {
			st.failed++
			fmt.Printf("# job %d failed: %v\n", o.seq, o.err)
			continue
		}
		if k := segmentAt(segs, o.start); k < 0 || !segs[k].quiet {
			continue
		}
		st.ops++
		st.work++
		if o.seq < nddWarmupJobs {
			continue
		}
		if o.traced {
			st.tracedLatMS = append(st.tracedLatMS, o.latMS)
		} else {
			st.latMS = append(st.latMS, o.latMS)
		}
	}
	return st, nil
}

// verify re-runs the served requests in-process and compares documents
// after stripping the runtime sections, and cross-checks the daemon's
// cache-hit counter against the hits the clients saw.
func (w *nddMix) verify() error {
	cached := int64(0)
	for _, o := range w.outcomes {
		cached += int64(o.cachedSubmits)
	}
	got, err := w.cacheHits()
	if err != nil {
		return err
	}
	if got-w.hitsAt0 != cached {
		return fmt.Errorf("ndd-mix: /healthz counts %d cache hits, clients saw %d", got-w.hitsAt0, cached)
	}

	var keys []string
	popular := 0
	for key, answers := range w.answers {
		if answers[0].doc != nil {
			keys = append(keys, key)
		}
		if popularKeys[key] {
			popular++
		}
	}
	if popular != len(popularJobs) {
		return fmt.Errorf("ndd-mix: %d popular requests answered, want %d", popular, len(popularJobs))
	}
	sort.Strings(keys)
	for _, key := range keys {
		var req server.JobRequest
		if err := json.Unmarshal([]byte(key), &req); err != nil {
			return err
		}
		want, err := localRun(req)
		if err != nil {
			return fmt.Errorf("ndd-mix: in-process run of %s: %w", key, err)
		}
		wantC, err := canonical(want)
		if err != nil {
			return err
		}
		for _, a := range w.answers[key] {
			gotC, err := canonical(a.doc)
			if err != nil {
				return fmt.Errorf("ndd-mix: served document for %s: %w", key, err)
			}
			if !bytes.Equal(gotC, wantC) {
				return fmt.Errorf("ndd-mix: served document for %s differs from the in-process run", key)
			}
		}
	}
	fmt.Printf("# ndd-mix: verified %d of %d distinct requests against in-process runs\n", len(keys), len(w.answers))
	return nil
}

// localRun computes the document a request asks for with the engine
// directly, as ndscen would.
func localRun(req server.JobRequest) ([]byte, error) {
	opt := engine.Options{Workers: engineWorkers, Trials: req.Trials, Exact: req.Exact}
	var buf bytes.Buffer
	if req.Kind == "adaptive" {
		ap, err := engine.AdaptivePreset(req.Name)
		if err != nil {
			return nil, err
		}
		res, err := engine.RunAdaptive(ap, opt)
		if err != nil {
			return nil, err
		}
		err = engine.WriteAdaptiveJSON(&buf, res)
		return buf.Bytes(), err
	}
	var scenarios []engine.Scenario
	label := req.Name
	var err error
	switch {
	case req.Kind == "suite":
		scenarios, err = engine.Suite(req.Name)
	case req.Kind == "sweep":
		sp := req.Sweep
		if sp == nil {
			var preset engine.SweepSpec
			preset, err = engine.SweepPreset(req.Name)
			sp = &preset
		}
		if err == nil {
			scenarios, err = sp.Expand()
			label = sp.Name
		}
	case req.Name != "":
		var sc engine.Scenario
		sc, err = engine.Preset(req.Name)
		scenarios = []engine.Scenario{sc}
	default:
		scenarios, label = req.Scenarios, "inline"
	}
	if err != nil {
		return nil, err
	}
	aggs, err := engine.RunSuite(scenarios, opt)
	if err != nil {
		return nil, err
	}
	err = engine.WriteJSON(&buf, engine.SuiteResult{Suite: label, Scenarios: aggs})
	return buf.Bytes(), err
}

// canonical re-encodes a JSON document without any "runtime" member (the
// golden-excluded observability sections), numbers kept verbatim.
func canonical(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var strip func(any)
	strip = func(v any) {
		switch t := v.(type) {
		case map[string]any:
			delete(t, "runtime")
			for _, c := range t {
				strip(c)
			}
		case []any:
			for _, c := range t {
				strip(c)
			}
		}
	}
	strip(v)
	return json.Marshal(v)
}

// serviceMetrics reports the server and codec layers.
func (w *nddMix) serviceMetrics(m metrics) error {
	w.mu.Lock()
	var submit, result, hit, coldEx, coldMC, wait []float64
	var hits, rejected, retries int
	for _, o := range w.outcomes {
		retries += o.retries
		if o.rejected {
			rejected++
		}
		if o.err != nil {
			continue
		}
		submit = append(submit, o.submitMS)
		result = append(result, o.resultMS)
		switch o.class {
		case "hit":
			hits++
			hit = append(hit, o.latMS)
		case "cold-exact":
			coldEx = append(coldEx, o.latMS)
			wait = append(wait, o.queueWaitMS)
		default:
			coldMC = append(coldMC, o.latMS)
			wait = append(wait, o.queueWaitMS)
		}
	}
	n := len(w.outcomes)
	w.mu.Unlock()
	m.set("server.submit_ms", median(submit), "ms", len(submit))
	m.set("server.result_ms", median(result), "ms", len(result))
	m.set("server.hit_ms", median(hit), "ms", len(hit))
	m.set("server.cold_exact_ms", median(coldEx), "ms", len(coldEx))
	m.set("server.cold_mc_ms", median(coldMC), "ms", len(coldMC))
	m.set("server.queue_wait_ms", median(wait), "ms", len(wait))
	m.set("server.cache_hit_ratio", float64(hits)/float64(n), "ratio", n)
	m.set("server.rejected_ratio", float64(rejected)/float64(n), "ratio", n)
	m.set("server.evicted_retry_ratio", float64(retries)/float64(n), "ratio", n)
	if err := codecMetrics(w.seq, m); err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	return nil
}

// layers reports the ndd-mix path: service and codec layers, the engine
// as the daemon ran it, and report encoding of the popular documents.
func (w *nddMix) layers(m metrics) error {
	serviceErr := w.serviceMetrics(m)
	w.mu.Lock()
	var busy, peak, p50, pmax []float64
	var hits, miss int64
	cold := 0
	for _, o := range w.outcomes {
		if o.err != nil || o.class == "hit" {
			continue
		}
		if o.busy > 0 { // jobs that ran trials
			busy = append(busy, o.busy)
			peak = append(peak, o.peakKB)
		}
		if len(o.finishMS) > 0 {
			p50 = append(p50, median(o.finishMS))
			pmax = append(pmax, maxOf(o.finishMS))
		}
		if cold < nddCacheRatioJobs {
			hits += o.cache.Hits
			miss += o.cache.Misses
			cold++
		}
	}
	w.mu.Unlock()
	m.set("engine.worker_busy", median(busy), "ratio", len(busy))
	m.set("engine.peak_accum_kb", median(peak), "KiB", len(peak))
	m.set("engine.build_cache.hit_ratio", ratio(hits, hits+miss), "ratio", cold)
	m.set("engine.point_finish_ms.p50", median(p50), "ms", len(p50))
	m.set("engine.point_finish_ms.max", median(pmax), "ms", len(pmax))
	return errors.Join(serviceErr, reportMetrics(m), layerPanel(w.cfg, m))
}

func (w *nddMix) close() {
	if w.hs != nil {
		w.hs.Close()
		<-w.served
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// serviceLayers measures the server layer for a workload that does not go
// through ndd: a short ndd-mix session on the same seed.
func serviceLayers(cfg config, m metrics) error {
	w := newNddMix(cfg).(*nddMix)
	defer w.close()
	if err := w.setup(); err != nil {
		return fmt.Errorf("service-layer session: %w", err)
	}
	if _, err := w.loop(time.Now().Add(3*time.Second), nil); err != nil {
		return fmt.Errorf("service-layer session: %w", err)
	}
	return w.serviceMetrics(m)
}

// codecMetrics times the ndshard/1 snapshot codec on the journal entries
// a journal-backed daemon would write for the run's first cold jobs: each
// job's points are run through the public shard API and split into one
// single-point journal snapshot per point, as point-NNNN.json holds them.
// codec.journal_kb_per_job is the encoded entry bytes per cold job.
func codecMetrics(seq *jobSeq, m metrics) error {
	var snaps []engine.Snapshot
	jobs := 0
	for i := 0; jobs < nddCodecJobs; i++ {
		j := seq.at(i)
		if popularKeys[j.key] {
			continue
		}
		jobs++
		scenarios := j.req.Scenarios
		label := "inline"
		if j.req.Sweep != nil {
			var err error
			if scenarios, err = j.req.Sweep.Expand(); err != nil {
				return err
			}
			label = j.req.Sweep.Name
		}
		snap, err := engine.RunScenariosShard(label, scenarios, engine.ShardSpec{K: 1, N: 1},
			engine.Options{Workers: engineWorkers, Trials: j.req.Trials, Exact: j.req.Exact})
		if err != nil {
			return err
		}
		for _, p := range snap.Points {
			snaps = append(snaps, engine.Snapshot{Codec: engine.SnapshotCodec, Kind: engine.SnapshotJournal,
				Label: label, Shard: engine.ShardSpec{K: 1, N: 1}, Points: []engine.PointSnapshot{p}})
		}
	}
	const reps = 5 // passes over all entries; the median pass is reported
	var enc, dec []float64
	kb := 0.0
	for r := 0; r < reps; r++ {
		var encD, decD time.Duration
		kb = 0
		for _, snap := range snaps {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := engine.EncodeSnapshot(&buf, snap); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := engine.DecodeSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
				return err
			}
			encD += t1.Sub(t0)
			decD += time.Since(t1)
			kb += float64(buf.Len()) / 1024
		}
		enc = append(enc, float64(encD)/1e3/kb)
		dec = append(dec, float64(decD)/1e3/kb)
	}
	m.set("codec.encode_us_per_kb", median(enc), "us/KiB", len(snaps))
	m.set("codec.decode_us_per_kb", median(dec), "us/KiB", len(snaps))
	m.set("codec.journal_kb_per_job", kb/float64(jobs), "KiB", jobs)
	return nil
}
