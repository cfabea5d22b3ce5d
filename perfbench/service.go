package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// service-mix is the only workload that exercises the HTTP service,
// its result cache, the incremental-analysis cache, the coordinator
// and the job WAL. Independent users make it an open loop: requests
// arrive as a seeded Poisson process, in two fixed-rate phases (lo, then
// hi), over loopback HTTP to an in-process coordinator in front of two
// backends (default caches, MaxRetries -1, jobs on a WAL under
// .bench_build). Each request is timed from when it was due, so a stall
// also charges the requests queued behind it.
//
// Traffic: half Zipf-popular repeats (result-cache hits), a quarter
// one-unit edits of popular programs (memo world and artifact reuse),
// 15% novel programs across configurations and domains (cold), and 10%
// single-job submissions whose completion is observed on the owning
// backend's watch stream. An analysis-core speedup should move this
// workload only through the edit and novel shares.

const (
	// Arrival rates per phase, about 40% and 80% of what the fleet
	// sustained with this mix on a 2-CPU host at the seed commit.
	rateLo = 40.0
	rateHi = 80.0
	// serviceLimit is the latency within which an answer counts toward
	// serve.ok_share.
	serviceLimit = time.Second
	// maxLateMs is the generator lateness (p99) past which a run is
	// invalid rather than slow: the schedule was not kept.
	maxLateMs = 100.0
	// analysisCacheBytes bounds each backend's incremental-analysis
	// cache. The cache estimates a world at 12 bytes per source byte, an
	// order of magnitude below its real heap, so the 64 MiB default grows
	// the heap past 2 GB within one run; 8 MiB keeps the popular
	// programs' worlds resident and the process near 300 MB.
	analysisCacheBytes = 8 << 20
	// popularPrograms is the size of the repeated working set, drawn
	// from popularSeed.
	popularPrograms = 16
	popularSeed     = 1993
)

var classShares = []struct {
	class string
	share float64
}{{"hit", 0.5}, {"edit", 0.25}, {"novel", 0.15}, {"job", 0.1}}

type svcProgram struct {
	name string
	src  string
	cfg  benchConfig
}

type svcReq struct {
	id    int
	due   time.Duration
	phase string // "lo" or "hi"
	class string
	body  []byte
	lines int
	orc   *oracle
}

type svcOutcome struct {
	status  int
	latency time.Duration
	late    time.Duration
	ok      bool
	wrong   int
	subst   int
	err     error
	detail  string
	// Jobs only.
	submit, done, queue time.Duration
}

type serviceRunner struct {
	dir       string
	backends  []*serve.Server
	servers   []*http.Server
	urls      []string
	coord     *cluster.Coordinator
	coordURL  string
	client    *http.Client
	watch     *http.Client
	popular   []svcProgram
	sched     []*svcReq
	span      time.Duration // the schedule's length
	skipped   int
	wg        sync.WaitGroup
	tr        atomic.Pointer[tracer]
	handlerMu sync.Mutex
	// Handler spans by request ID, filled only while tracing.
	coordSpan   map[int]time.Duration
	backendSpan map[int]time.Duration
	wrapCost    time.Duration
	handlerTime time.Duration
}

// benchBody renders an analysis request. bench_id leads the object so
// the traced handlers can read it without decoding the whole body; the
// service ignores unknown fields, so it changes no cache key.
func benchBody(id int, name, src string, cfg benchConfig) []byte {
	b, err := json.Marshal(struct {
		ID       int            `json:"bench_id"`
		Filename string         `json:"filename"`
		Source   string         `json:"source"`
		Config   map[string]any `json:"config"`
	}{id, name, src, cfg.wire()})
	if err != nil {
		panic(err) // only plain strings and ints: cannot fail
	}
	return b
}

func (s *serviceRunner) setup(seed int64, dur time.Duration) error {
	r := rand.New(rand.NewSource(seed ^ 0x5e41ce))
	var err error
	if err = os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	if s.dir, err = os.MkdirTemp(buildDir, "wal-"); err != nil {
		return err
	}
	if err := s.start(); err != nil {
		return err
	}

	// Popular programs and their configurations: a fixed set of small
	// programs, so seeds vary the traffic, not the working set.
	fixed := rand.New(rand.NewSource(popularSeed))
	cfgs := configDraw(fixed, popularPrograms)
	for i := 0; i < popularPrograms; i++ {
		s.popular = append(s.popular, svcProgram{name: progName("pop", i), src: genProgram(fixed.Int63(), "small"), cfg: cfgs[i]})
	}

	// The schedule: Poisson arrivals per phase, then classes dealt in
	// exact shares, so every seed sends the same mix.
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(s.popular)-1))
	phases := []struct {
		name string
		rate float64
	}{{"lo", rateLo}, {"hi", rateHi}}
	s.span = dur
	half := dur / 2
	for pi, ph := range phases {
		var due []time.Duration
		for t := time.Duration(pi) * half; ; {
			t += time.Duration(r.ExpFloat64() / ph.rate * float64(time.Second))
			if t >= time.Duration(pi+1)*half {
				break
			}
			due = append(due, t)
		}
		for i, class := range dealClasses(r, len(due)) {
			req := &svcReq{id: len(s.sched) + 1, due: due[i], phase: ph.name, class: class}
			p := s.popular[zipf.Uint64()]
			src, name, cfg := p.src, p.name, p.cfg
			switch class {
			case "edit":
				src = editSomeUnit(r, src)
			case "novel":
				src, name = genProgram(r.Int63(), "small"), progName("novel", req.id)
				cfg = configDraw(r, 1)[0]
			}
			req.body = benchBody(req.id, name, src, cfg)
			req.lines = lineCount(src)
			s.sched = append(s.sched, req)
		}
	}

	// Reference runs: every distinct text the schedule sends.
	orcByText := map[string]int{}
	var names, texts []string
	textOf := func(body []byte) (string, string) {
		var b struct {
			Filename string `json:"filename"`
			Source   string `json:"source"`
		}
		_ = json.Unmarshal(body, &b) // benchBody output: always valid
		return b.Filename, b.Source
	}
	for _, req := range s.sched {
		name, src := textOf(req.body)
		if _, ok := orcByText[src]; !ok {
			orcByText[src] = len(texts)
			names, texts = append(names, name), append(texts, src)
		}
	}
	orcs, skipped, err := buildOracles(names, texts)
	if err != nil {
		return err
	}
	s.skipped = skipped
	for _, req := range s.sched {
		_, src := textOf(req.body)
		req.orc = orcs[orcByText[src]]
	}

	// Warm-up: every popular program to both backends (memo worlds for
	// edits wherever they land) and once through the coordinator (the
	// owner's result cache, and the coordinator's connections).
	for i, p := range s.popular {
		body := benchBody(-1-i, p.name, p.src, p.cfg)
		for _, u := range append(append([]string(nil), s.urls...), s.coordURL) {
			code, _, err := s.post(u+"/v1/analyze", body)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if code != http.StatusOK {
				return fmt.Errorf("warm-up: %s answered %d", u, code)
			}
		}
	}
	return nil
}

// dealClasses returns n request classes in classShares proportions,
// shuffled by r.
func dealClasses(r *rand.Rand, n int) []string {
	var out []string
	for _, cs := range classShares {
		for k := int(cs.share*float64(n) + 0.5); k > 0 && len(out) < n; k-- {
			out = append(out, cs.class)
		}
	}
	for len(out) < n {
		out = append(out, classShares[0].class)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// editSomeUnit applies one local-constant edit to a random unit that
// has one, keeping the rest of the program byte-identical.
func editSomeUnit(r *rand.Rand, src string) string {
	chunks := splitUnits("edit.f", src)
	for _, i := range r.Perm(len(chunks)) {
		if t, ok := tweakConstant(r, chunks[i]); ok {
			chunks[i] = t
			var b bytes.Buffer
			for _, c := range chunks {
				b.WriteString(c)
			}
			return b.String()
		}
	}
	return src
}

// start brings up two backends and the coordinator on loopback ports.
func (s *serviceRunner) start() error {
	s.coordSpan = map[int]time.Duration{}
	s.backendSpan = map[int]time.Duration{}
	for i := 0; i < 2; i++ {
		b, err := serve.New(serve.Config{
			MaxRetries:         -1,
			AnalysisCacheBytes: analysisCacheBytes,
			JobsDir:            fmt.Sprintf("%s/b%d", s.dir, i),
		})
		if err != nil {
			return err
		}
		s.backends = append(s.backends, b)
		u, err := s.listen(s.wrap(b.Handler(), "backend", s.backendSpan))
		if err != nil {
			return err
		}
		s.urls = append(s.urls, u)
	}
	c, err := cluster.New(cluster.Config{Backends: s.urls})
	if err != nil {
		return err
	}
	s.coord = c
	if s.coordURL, err = s.listen(s.wrap(c.Handler(), "coordinator", s.coordSpan)); err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	s.watch = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return nil
}

func (s *serviceRunner) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(l) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + l.Addr().String(), nil
}

// wrap times a handler when the run is traced: it reads the bench_id
// that leads the body and records the handler's span under it.
func (s *serviceRunner) wrap(h http.Handler, name string, spans map[int]time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil || r.URL.Path != "/v1/analyze" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		id := leadingID(body)
		t1 := time.Now()
		h.ServeHTTP(w, r)
		t2 := time.Now()
		tr.record(int64(id), 0, name, t1, t2, 0)
		s.handlerMu.Lock()
		if _, seen := spans[id]; !seen {
			spans[id] = t2.Sub(t1)
		}
		s.handlerTime += t2.Sub(t1)
		s.wrapCost += t1.Sub(t0) + time.Since(t2)
		s.handlerMu.Unlock()
	})
}

// leadingID parses the bench_id at the start of a benchBody.
func leadingID(body []byte) int {
	const prefix = `{"bench_id":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0
	}
	id, _ := strconv.Atoi(string(rest[:end]))
	return id
}

func (s *serviceRunner) post(url string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (s *serviceRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.coord != nil {
		_ = s.coord.Shutdown(ctx) // best effort: the run is over
	}
	for _, b := range s.backends {
		_ = b.Shutdown(ctx)
	}
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx)
	}
	s.wg.Wait()
	if s.client != nil {
		s.client.CloseIdleConnections()
		s.watch.CloseIdleConnections()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// do sends one scheduled request and checks its answer outside the
// timed interval.
func (s *serviceRunner) do(req *svcReq, start time.Time) svcOutcome {
	due := start.Add(req.due)
	var out svcOutcome
	out.late = time.Since(due)
	if req.class == "job" {
		return s.doJob(req, due, out)
	}
	code, body, err := s.post(s.coordURL+"/v1/analyze", req.body)
	out.latency = time.Since(due)
	out.status, out.err = code, err
	if err == nil && code == http.StatusOK {
		s.checkAnswer(req, body, out.latency, &out)
	}
	return out
}

// checkAnswer checks an analysis answer against the interpreter; took
// is the latency the service limit applies to.
func (s *serviceRunner) checkAnswer(req *svcReq, body []byte, took time.Duration, out *svcOutcome) {
	var resp serve.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		out.err = fmt.Errorf("decoding answer: %w", err)
		return
	}
	v := req.orc.checkResponse(resp.Constants)
	out.wrong, out.detail = v.wrong, v.first
	out.subst = resp.Substitutions
	out.ok = out.wrong == 0 && took <= serviceLimit
}

// doJob submits one single-job batch under its own tenant, watches the
// owning backend's stream until the job is terminal, then fetches and
// checks the result.
func (s *serviceRunner) doJob(req *svcReq, due time.Time, out svcOutcome) svcOutcome {
	tenant := "t" + strconv.Itoa(req.id)
	batch := []byte(`{"tenant":"` + tenant + `","jobs":[` + string(req.body) + `]}`)
	sent := time.Now()
	code, body, err := s.post(s.coordURL+"/v1/jobs", batch)
	acked := time.Now()
	out.latency = acked.Sub(due)
	out.submit = acked.Sub(sent)
	out.status, out.err = code, err
	if err != nil || code != http.StatusAccepted {
		return out
	}
	var ack serve.JobSubmitResponse
	if err := json.Unmarshal(body, &ack); err != nil || len(ack.Jobs) != 1 {
		out.err = fmt.Errorf("job ack %q: %v", body, err)
		return out
	}
	state, firstLeft, err := s.watchJob(tenant, acked)
	if err != nil {
		out.err = err
		return out
	}
	out.done = time.Since(due)
	out.queue = firstLeft
	if state != jobs.StateDone {
		out.err = fmt.Errorf("job %s ended %s", ack.Jobs[0].ID, state)
		return out
	}
	resp, err := s.watch.Get(s.coordURL + "/v1/jobs/" + ack.Jobs[0].ID + "/result")
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	result, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("job result: %d %v", resp.StatusCode, err)
		return out
	}
	s.checkAnswer(req, result, out.done, &out)
	return out
}

// watchJob follows every backend's watch stream for the tenant; the
// owner streams the job to a terminal state, the others end at once.
// It returns the terminal state and when the job first left the queue.
func (s *serviceRunner) watchJob(tenant string, acked time.Time) (jobs.State, time.Duration, error) {
	type res struct {
		state jobs.State
		left  time.Duration
		err   error
	}
	ch := make(chan res, len(s.urls))
	for _, u := range s.urls {
		go func(u string) {
			resp, err := s.watch.Get(u + "/v1/jobs/watch?tenant=" + tenant)
			if err != nil {
				ch <- res{err: err}
				return
			}
			defer resp.Body.Close()
			var r res
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var v jobs.JobView
				if json.Unmarshal(sc.Bytes(), &v) != nil {
					continue
				}
				if v.State != jobs.StateQueued && r.left == 0 {
					r.left = time.Since(acked)
				}
				r.state = v.State
			}
			r.err = sc.Err()
			ch <- r
		}(u)
	}
	var final res
	for range s.urls {
		r := <-ch
		if r.err != nil && final.err == nil {
			final.err = r.err
		}
		if r.state != "" {
			final.state, final.left = r.state, r.left
		}
	}
	if final.state == "" && final.err == nil {
		final.err = errors.New("no backend streamed the job")
	}
	return final.state, final.left, final.err
}

func (s *serviceRunner) measure(dur time.Duration, tr *tracer, rep *report) error {
	counts := map[string]int{}
	for _, req := range s.sched {
		counts[req.class]++
	}
	rep.notef("%d scheduled requests (hit=%d edit=%d novel=%d job=%d); %d texts skipped by the interpreter",
		len(s.sched), counts["hit"], counts["edit"], counts["novel"], counts["job"], s.skipped)
	for c, n := range counts {
		rep.exact["requests."+c] = float64(n)
	}
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	before := s.snapshot()

	outs := make([]svcOutcome, len(s.sched))
	var wg sync.WaitGroup
	heap := startHeapSampler()
	start := time.Now()
	for i, req := range s.sched {
		if d := time.Until(start.Add(req.due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, req *svcReq) {
			defer wg.Done()
			outs[i] = s.do(req, start)
		}(i, req)
	}
	wg.Wait()
	peak := heap.finish()
	after := s.snapshot()
	s.report(outs, before, after, peak, rep)
	return nil
}

// fleetSnap is the /statsz view the per-layer metrics are deltas of.
type fleetSnap struct {
	backends []serve.StatsSnapshot
	coord    cluster.Stats
}

func (s *serviceRunner) snapshot() fleetSnap {
	var f fleetSnap
	for _, b := range s.backends {
		f.backends = append(f.backends, b.Stats())
	}
	f.coord = s.coord.Stats()
	return f
}

func (s *serviceRunner) report(outs []svcOutcome, before, after fleetSnap, peak float64, rep *report) {
	var all, late, jobDone, jobSubmit, jobQueue []float64
	byPhase := map[string][]float64{}
	var lines int
	ok, subst := 0, 0
	for i, o := range outs {
		req := s.sched[i]
		rep.attempted++
		late = append(late, ms(o.late))
		good := o.err == nil && (o.status == http.StatusOK || o.status == http.StatusAccepted) && o.wrong == 0
		if !good {
			rep.failed++
			rep.wrong += o.wrong
			if o.err != nil {
				rep.notef("request %d (%s): %v", req.id, req.class, o.err)
			} else if o.wrong > 0 {
				rep.notef("request %d (%s): %d constants contradicted by the interpreter, first %s; body %.100s",
					req.id, req.class, o.wrong, o.detail, req.body)
			} else {
				rep.notef("request %d (%s): status %d", req.id, req.class, o.status)
			}
			continue
		}
		if req.class != "job" {
			// Job submissions have their own metric (job.p50_ms); the
			// op.* latencies are the analysis requests'.
			all = append(all, ms(o.latency))
		}
		byPhase[req.phase] = append(byPhase[req.phase], ms(o.latency))
		lines += req.lines
		subst += o.subst
		if o.ok {
			ok++
		}
		if req.class == "job" {
			jobDone = append(jobDone, ms(o.done))
			jobSubmit = append(jobSubmit, ms(o.submit))
			jobQueue = append(jobQueue, ms(o.queue))
		}
	}
	lateP99 := quantile(late, 0.99)
	if lateP99 > maxLateMs {
		rep.invalidf("generator fell behind its schedule: p99 lateness %.1f ms > %.0f ms", lateP99, maxLateMs)
	}
	okShare := ratio(float64(ok), float64(rep.attempted))
	rep.setE2E("op.p50_ms", median(all), "ms")
	rep.setE2E("op.p90_ms", quantile(all, 0.9), "ms")
	// An open loop's throughput is what it answered over the schedule.
	rep.setE2E("kloc_s", float64(lines)/1000/s.span.Seconds(), "KLOC/s")
	rep.setE2E("ok_share", okShare, "ratio")
	rep.setE2E("peak_heap_mb", peak, "MB")
	rep.setE2E("subst_total", float64(subst), "uses")
	for _, ph := range []string{"lo", "hi"} {
		rep.setNamed("serve."+ph+".p50_ms", median(byPhase[ph]), "ms")
		rep.setNamed("serve."+ph+".p99_ms", quantile(byPhase[ph], 0.99), "ms")
	}
	rep.setNamed("serve.ok_share", okShare, "ratio")
	rep.setNamed("job.p50_ms", median(jobDone), "ms")
	rep.notef("%d answered (lo=%d hi=%d), generator lateness p99 %.2f ms",
		len(all), len(byPhase["lo"]), len(byPhase["hi"]), lateP99)
	rep.setLayer("gen.late_ms.p99", lateP99, "ms")
	rep.setLayer("jobs.submit_ms", median(jobSubmit), "ms")
	rep.setLayer("jobs.queue_ms", median(jobQueue), "ms")
	s.layerDeltas(before, after, rep)
	if s.tr.Load() != nil {
		s.hopMetrics(rep)
	}
}

// layerDeltas derives the cache, phase, shed, WAL and coordinator
// metrics from the fleet's /statsz counters over the timed run.
func (s *serviceRunner) layerDeltas(before, after fleetSnap, rep *report) {
	var rcHit, rcMiss, acHit, acMiss, requests, shed, fsyncs, fsyncNs float64
	phase := map[string]float64{}
	var analyzed float64
	for i := range after.backends {
		a, b := after.backends[i], before.backends[i]
		if a.ResultCache != nil && b.ResultCache != nil {
			rcHit += float64(a.ResultCache.Hits - b.ResultCache.Hits)
			rcMiss += float64(a.ResultCache.Misses - b.ResultCache.Misses)
		}
		if a.AnalysisCache != nil && b.AnalysisCache != nil {
			acHit += float64(a.AnalysisCache.Hits - b.AnalysisCache.Hits)
			acMiss += float64(a.AnalysisCache.Misses - b.AnalysisCache.Misses)
		}
		requests += float64(a.Requests - b.Requests)
		shed += float64(a.Shed - b.Shed)
		for name, pl := range a.PhaseLatencies {
			phase[name] += float64(pl.TotalNs - b.PhaseLatencies[name].TotalNs)
		}
		analyzed += float64(a.PhaseLatencies["assemble"].Count - b.PhaseLatencies["assemble"].Count)
		if a.Jobs != nil && b.Jobs != nil {
			fsyncs += float64(a.Jobs.WAL.Fsyncs - b.Jobs.WAL.Fsyncs)
			fsyncNs += float64(a.Jobs.WAL.FsyncAvgNs*a.Jobs.WAL.Fsyncs - b.Jobs.WAL.FsyncAvgNs*b.Jobs.WAL.Fsyncs)
		}
	}
	rep.setLayer("result_cache.hit_ratio", ratio(rcHit, rcHit+rcMiss), "ratio")
	rep.setLayer("analysis_cache.hit_ratio", ratio(acHit, acHit+acMiss), "ratio")
	rep.setLayer("serve.shed_share", ratio(shed, requests), "ratio")
	var total float64
	for _, l := range append(append([]string(nil), layerNames...), "lookup", "assemble") {
		total += phase[l]
	}
	for _, l := range layerNames {
		rep.setLayer("backend.phase_ms."+l, ratio(phase[l], analyzed)/1e6, "ms")
	}
	rep.setLayer("backend.phase_ms.lookup", ratio(phase["lookup"], analyzed)/1e6, "ms")
	rep.setLayer("backend.analysis_ms_per_req", ratio(total, analyzed)/1e6, "ms")
	rep.setLayer("jobs.wal_fsync_us", ratio(fsyncNs, fsyncs)/1e3, "us")
	creq := float64(after.coord.Requests - before.coord.Requests)
	rep.setLayer("coord.hedges_per_kreq", 1000*ratio(float64(after.coord.HedgesStarted-before.coord.HedgesStarted), creq), "1/kreq")
	rep.setLayer("coord.reroutes_per_kreq", 1000*ratio(float64(after.coord.Reroutes-before.coord.Reroutes), creq), "1/kreq")
}

// hopMetrics pairs each request's coordinator span with its backend
// span: the difference is the coordinator hop.
func (s *serviceRunner) hopMetrics(rep *report) {
	s.handlerMu.Lock()
	defer s.handlerMu.Unlock()
	var hop []float64
	handler := map[string][]float64{}
	for _, req := range s.sched {
		b, okB := s.backendSpan[req.id]
		if !okB {
			continue
		}
		handler[req.class] = append(handler[req.class], ms(b))
		if c, okC := s.coordSpan[req.id]; okC {
			hop = append(hop, ms(c-b))
		}
	}
	rep.setLayer("coord.hop_ms.p50", median(hop), "ms")
	rep.setLayer("coord.hop_ms.p99", quantile(hop, 0.99), "ms")
	for _, c := range []string{"hit", "edit", "novel"} {
		rep.setLayer("backend.handler_ms."+c, median(handler[c]), "ms")
	}
	rep.setLayer("trace.overhead_pct.service", 100*ratio(float64(s.wrapCost), float64(s.handlerTime)), "%")
}
