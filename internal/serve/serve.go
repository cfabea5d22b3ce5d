// Package serve wraps the analyzer in a crash-only HTTP analysis
// service. The library already guarantees that one analysis never
// panics the process (internal/guard); this package turns that into
// availability guarantees for a long-running process handling many
// hostile requests at once:
//
//   - Admission control: a bounded work queue (MaxConcurrency workers,
//     QueueDepth waiters) that sheds overload with 429 + Retry-After
//     instead of accumulating goroutines.
//   - Per-request deadlines: every analysis runs under a context
//     deadline wired through ipcp.AnalyzeContext in FailFast mode, so a
//     slow request dies cleanly instead of wedging a worker.
//   - Retry with degradation: transiently failed requests are re-run
//     with capped, jittered exponential backoff at progressively
//     cheaper configurations (the guard layer's Polynomial →
//     PassThrough → Intraprocedural → Literal chain) before giving up.
//   - Circuit breaking: consecutive internal failures trip the breaker
//     to fail-fast 503s; after a cooldown it half-opens and probes its
//     way back to closed.
//   - Caching: an incremental-analysis cache (ipcp.Cache) shared by all
//     requests reuses analyzed programs across analyses (an edited text
//     is derived from a cached one by the replace step), and a result
//     cache replays whole clean responses byte-for-byte for repeated
//     (source, config, want) requests. Both are LRU with byte budgets
//     and report hit/miss/eviction counters in /statsz; a result-cache
//     hit is served even while the breaker is open or workers are busy.
//   - Observability and lifecycle: /healthz, /readyz, a /statsz counter
//     snapshot, and graceful shutdown that drains in-flight work under
//     a drain deadline. Profiling handlers (net/http/pprof) are
//     registered only when EnablePprof is set.
//
// Every response is JSON; the only status codes a well-formed request
// can see are 200 (ok or degraded), 422 (program errors), 429 (shed),
// and 503 (breaker open, draining, deadline, or internal failure after
// retries). Malformed HTTP/JSON gets 400/405.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/domain"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/ipcp"
)

// Config tunes the service. The zero value of each field selects the
// documented default.
type Config struct {
	// MaxConcurrency is the number of analyses that may run at once
	// (default GOMAXPROCS).
	MaxConcurrency int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond the ones running; anything past MaxConcurrency+QueueDepth
	// is shed with 429 (default 2*MaxConcurrency).
	QueueDepth int
	// RequestTimeout caps one request's wall clock, retries included
	// (default 10s). A request's timeout_ms may shorten it, never
	// lengthen it.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 5s).
	DrainTimeout time.Duration
	// MaxRetries caps re-runs after a transient failure (default 3).
	// Negative disables the retry/degrade ladder entirely: every
	// response is served at full requested fidelity or not at all — the
	// right setting when a coordinator in front of this server owns the
	// retry policy and reroutes failures to other backends instead.
	MaxRetries int
	// RetryBaseDelay and RetryMaxDelay shape the capped, jittered
	// exponential backoff between attempts (defaults 5ms and 250ms).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold is the consecutive internal failures that trip
	// the circuit (default 5); BreakerCooldown is how long it stays open
	// before half-opening (default 2s); BreakerProbes is the consecutive
	// probe successes that close it again (default 2).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	BreakerProbes    int
	// AnalysisParallelism is the per-request ipcp.Config.Parallelism
	// (default 1: each analysis runs serially; the service gets its
	// parallelism from concurrent requests, not nested worker pools).
	AnalysisParallelism int
	// MaxBodyBytes caps the request body (default 8 MiB — comfortably
	// above the parser's own 4 MiB source cap).
	MaxBodyBytes int64
	// AnalysisCacheBytes bounds the incremental-analysis cache shared
	// by every request (default 64 MiB). Negative disables the cache;
	// results are byte-identical either way.
	AnalysisCacheBytes int64
	// ResultCacheBytes bounds the whole-response result cache (default
	// 32 MiB). Negative disables it.
	ResultCacheBytes int64
	// EnablePprof registers the net/http/pprof handlers under
	// /debug/pprof/ on the service mux. Off by default: the profiling
	// endpoints expose internals and cost memory, so they are strictly
	// opt-in (the binary's -pprof flag).
	EnablePprof bool

	// SessionLimit caps resident compiler-daemon sessions (default 32).
	// Negative disables the session API (its endpoints answer 404).
	SessionLimit int
	// SessionBytes bounds the estimated retained size of all resident
	// sessions (default 256 MiB); the least-recently-used session is
	// evicted when either bound is exceeded.
	SessionBytes int64
	// SessionTTL expires sessions idle longer than this (default 10m).
	SessionTTL time.Duration

	// JobsDir enables the durable batch/async job API (/v1/jobs): the
	// write-ahead log lives here and is replayed on startup, so a crash
	// mid-batch loses no acknowledged job. Empty disables the job API
	// (its endpoints answer 404).
	JobsDir string
	// JobWorkers is the number of concurrent job executions (default
	// max(1, MaxConcurrency/2) — async work shares the machine with
	// synchronous requests but must not be able to monopolize it).
	JobWorkers int
	// JobPolicy tunes job retries, TTLs, and retention; JobQuota is the
	// default per-tenant quota and JobTenants pins per-tenant overrides.
	JobPolicy  ipcp.JobPolicy
	JobQuota   ipcp.TenantQuota
	JobTenants map[string]ipcp.TenantQuota
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrency
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 5 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 250 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.BreakerProbes <= 0 {
		c.BreakerProbes = 2
	}
	if c.AnalysisParallelism == 0 {
		c.AnalysisParallelism = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.AnalysisCacheBytes == 0 {
		c.AnalysisCacheBytes = 64 << 20
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 32 << 20
	}
	if c.SessionLimit == 0 {
		c.SessionLimit = 32
	}
	if c.SessionBytes == 0 {
		c.SessionBytes = 256 << 20
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = c.MaxConcurrency / 2
		if c.JobWorkers < 1 {
			c.JobWorkers = 1
		}
	}
	return c
}

// Server is the crash-only analysis service.
type Server struct {
	cfg      Config
	sem      chan struct{}
	queued   atomic.Int64
	inFlight atomic.Int64
	draining atomic.Bool
	breaker  *Breaker
	started  time.Time
	// http is published by Serve and read by Shutdown/Close; atomic
	// because a supervisor may restart Serve in a fresh goroutine and
	// later shut the server down from another, with no other
	// synchronization between the two.
	http     atomic.Pointer[http.Server]
	memo     *ipcp.Cache     // nil when AnalysisCacheBytes < 0
	results  *resultCache    // nil when ResultCacheBytes < 0
	jobs     *jobs.Manager   // nil when JobsDir is empty
	sessions *sessionManager // nil when SessionLimit < 0
	// reqPL runs the per-request analysis phase through the shared pass
	// manager, with the retry/degrade ladder attached as middleware.
	reqPL *pipeline.Pipeline[*reqState]

	// test seams
	sleep  func(ctx context.Context, d time.Duration)
	jitter func() float64

	stats serverStats
}

// serverStats is the /statsz counter set. All counters are monotonic.
type serverStats struct {
	requests     atomic.Int64 // POST /v1/analyze received
	ok           atomic.Int64 // 200, no degradation
	degraded     atomic.Int64 // 200 with degradations
	shed         atomic.Int64 // 429
	badRequests  atomic.Int64 // 400/405
	inputErrors  atomic.Int64 // 422
	breakeropen  atomic.Int64 // 503 rejected by open breaker
	drainRejects atomic.Int64 // 503 while draining
	deadline     atomic.Int64 // 503 deadline exhausted
	internal     atomic.Int64 // 503 internal failure after retries
	abandoned    atomic.Int64 // client gone while queued
	retriedReqs  atomic.Int64 // requests retried at least once
	retriesTotal atomic.Int64 // total retry attempts
	// latencyEWMA is an exponentially weighted moving average of served
	// analyses' wall time in nanoseconds (α = 1/8). It sizes the derived
	// Retry-After on shed responses: a queue of depth d drains in about
	// d/workers · EWMA, so that is what clients are told to wait.
	latencyEWMA atomic.Int64

	mu          sync.Mutex
	degByAxis   map[string]int64 // degradations by budget axis
	panicsPhase map[string]int64 // internal errors by pipeline phase
	phaseAgg    map[string]*PhaseLatency
}

// New returns a Server over cfg (zero-value fields defaulted). The
// only failure mode is the durable job subsystem: when cfg.JobsDir is
// set, its write-ahead log is opened and replayed here, and a damaged
// log refuses to start rather than silently dropping acknowledged
// jobs.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrency),
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.BreakerProbes),
		started: time.Now(),
		jitter:  rand.Float64,
	}
	if cfg.AnalysisCacheBytes > 0 {
		s.memo = ipcp.NewCache(ipcp.CacheOptions{MaxBytes: cfg.AnalysisCacheBytes})
	}
	if cfg.ResultCacheBytes > 0 {
		s.results = newResultCache(cfg.ResultCacheBytes)
	}
	if cfg.SessionLimit > 0 {
		s.sessions = newSessionManager(cfg.SessionLimit, cfg.SessionBytes, cfg.SessionTTL)
	}
	s.sleep = func(ctx context.Context, d time.Duration) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	s.stats.degByAxis = make(map[string]int64)
	s.stats.panicsPhase = make(map[string]int64)
	s.stats.phaseAgg = make(map[string]*PhaseLatency)
	s.reqPL = pipeline.New[*reqState]().Use(s.retrying())
	if cfg.JobsDir != "" {
		m, err := jobs.New(jobs.Config{
			Dir:          cfg.JobsDir,
			Executor:     jobExecutor{s},
			Workers:      cfg.JobWorkers,
			Policy:       cfg.JobPolicy,
			DefaultQuota: cfg.JobQuota,
			Tenants:      cfg.JobTenants,
		})
		if err != nil {
			return nil, err
		}
		s.jobs = m
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/", s.handleSessionByID)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/watch", s.handleJobsWatch)
	mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	s.http.Store(hs)
	return hs.Serve(l)
}

// BeginDrain flips the server to draining without closing anything:
// /readyz answers 503 and new analyses are refused with class
// "draining", while the listener keeps accepting connections. Callers
// that sit behind a load balancer or coordinator call this first, wait
// for health checks to route traffic away, then call Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown drains the server: new work is refused (readyz flips, 503s
// with class "draining", job submissions rejected), in-flight requests
// and running job attempts get up to DrainTimeout to finish, and the
// job queue is checkpointed — queued jobs survive to the next boot
// instead of being discarded. Connections close last.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	var httpErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if hs := s.http.Load(); hs != nil {
			httpErr = hs.Shutdown(dctx)
		}
	}()
	var jobsErr error
	if s.jobs != nil {
		jobsErr = s.jobs.Drain(dctx)
	}
	<-done
	if httpErr != nil {
		return httpErr
	}
	return jobsErr
}

// Close abruptly terminates the server: the listener and every active
// connection are closed without waiting for in-flight work, and the
// job subsystem is crash-killed (no checkpoint — on-disk state is
// exactly what kill -9 would leave). It exists for chaos harnesses
// that need to kill a backend mid-request the way a crashed process
// would; production shutdown is Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	if s.jobs != nil {
		s.jobs.Kill()
	}
	hs := s.http.Load()
	if hs == nil {
		return nil
	}
	return hs.Close()
}

// ---------------------------------------------------------------------
// Wire types

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	Filename string        `json:"filename"`
	Source   string        `json:"source"`
	Config   RequestConfig `json:"config"`
	// TimeoutMs shortens (never lengthens) the server's RequestTimeout
	// for this request.
	TimeoutMs int         `json:"timeout_ms"`
	Want      RequestWant `json:"want"`
}

// RequestConfig mirrors the CLI's configuration axes in JSON.
type RequestConfig struct {
	// Kind: literal | intra | passthrough | polynomial (default
	// passthrough).
	Kind string `json:"kind"`
	// Mod / Ret default to true when absent.
	Mod      *bool  `json:"mod"`
	Ret      *bool  `json:"ret"`
	Complete bool   `json:"complete"`
	Gated    bool   `json:"gated"`
	Solver   string `json:"solver"` // worklist | binding
	// Domain: abstract domain to propagate — const (default) |
	// interval | parity | taint | cond-const.
	Domain string `json:"domain"`

	MaxSolverSteps int `json:"max_solver_steps"`
	MaxRounds      int `json:"max_rounds"`
	MaxExprSize    int `json:"max_expr_size"`
}

// RequestWant selects optional result payloads.
type RequestWant struct {
	JumpFunctions bool `json:"jump_functions"`
	Transformed   bool `json:"transformed"`
}

// ConstantJSON is one discovered constant.
type ConstantJSON struct {
	Name       string `json:"name"`
	Value      int64  `json:"value"`
	Global     bool   `json:"global,omitempty"`
	Block      string `json:"block,omitempty"`
	Referenced bool   `json:"referenced"`
}

// FactJSON is one abstract-domain fact: the named parameter or COMMON
// variable satisfies Value ("[1,10]", "even", "clean", …) on every
// entry to its procedure. Populated only for non-constant domains —
// for the constant domains, facts and constants coincide.
type FactJSON struct {
	Name   string `json:"name"`
	Value  string `json:"value"`
	Global bool   `json:"global,omitempty"`
	Block  string `json:"block,omitempty"`
}

// DegradationJSON is one graceful-degradation step the analysis took.
type DegradationJSON struct {
	Axis   string `json:"axis"`
	From   string `json:"from"`
	To     string `json:"to"`
	Detail string `json:"detail"`
}

// AnalyzeResponse is the 200 body.
type AnalyzeResponse struct {
	Status    string                    `json:"status"` // "ok" | "degraded"
	Config    string                    `json:"config"` // configuration actually served
	Retries   int                       `json:"retries"`
	Constants map[string][]ConstantJSON `json:"constants"`
	// Domain and Facts report abstract-domain results; both are absent
	// for the default constant domain, keeping its responses
	// byte-identical to earlier wire versions.
	Domain        string                `json:"domain,omitempty"`
	Facts         map[string][]FactJSON `json:"facts,omitempty"`
	Substitutions int                   `json:"substitutions"`
	Degradations  []DegradationJSON     `json:"degradations,omitempty"`
	Warnings      []string              `json:"warnings,omitempty"`
	JFEvaluations int                   `json:"jf_evaluations"`
	SolverRounds  int                   `json:"solver_rounds"`
	JumpFunctions []string              `json:"jump_functions,omitempty"`
	Transformed   string                `json:"transformed,omitempty"`
}

// ErrorResponse is every non-200 body.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries a machine-readable class alongside the message.
// Classes: bad-request, method, input, shed, draining, breaker-open,
// exhausted:<axis>, panic:<phase>, canceled, handler-panic.
type ErrorBody struct {
	Class   string `json:"class"`
	Message string `json:"message"`
}

// StatsSnapshot is the /statsz body.
type StatsSnapshot struct {
	UptimeSeconds  float64          `json:"uptime_seconds"`
	Draining       bool             `json:"draining"`
	MaxConcurrency int              `json:"max_concurrency"`
	QueueDepth     int              `json:"queue_depth"`
	InFlight       int64            `json:"in_flight"`
	Queued         int64            `json:"queued"`
	Requests       int64            `json:"requests"`
	OK             int64            `json:"ok"`
	Degraded       int64            `json:"degraded"`
	Shed           int64            `json:"shed"`
	BadRequests    int64            `json:"bad_requests"`
	InputErrors    int64            `json:"input_errors"`
	BreakerOpen    int64            `json:"breaker_rejects"`
	DrainRejects   int64            `json:"drain_rejects"`
	DeadlineFails  int64            `json:"deadline_failures"`
	InternalFails  int64            `json:"internal_failures"`
	Abandoned      int64            `json:"abandoned"`
	RetriedReqs    int64            `json:"requests_retried"`
	RetriesTotal   int64            `json:"retries_total"`
	DegByAxis      map[string]int64 `json:"degradations_by_axis,omitempty"`
	PanicsByPhase  map[string]int64 `json:"panics_by_phase,omitempty"`
	// PhaseLatencies aggregates every served analysis's per-phase wall
	// time (ipcp.Result.PhaseStats) across the server's lifetime, keyed
	// by phase name (lookup, parse, sem, graph, jump, solve, subst,
	// assemble). Empty until the first 200 response.
	PhaseLatencies map[string]PhaseLatency `json:"phase_latencies,omitempty"`
	Breaker        BreakerSnapshot         `json:"breaker"`
	// AnalysisCache counts the incremental-analysis cache's memoized
	// lookups at every granularity (front-end builds, whole-config
	// phase results, per-procedure artifacts) and the texts it derived
	// from a cached one; ResultCache counts whole replayed responses.
	// Either is absent when that cache is disabled.
	AnalysisCache *CacheCounters `json:"analysis_cache,omitempty"`
	ResultCache   *CacheCounters `json:"result_cache,omitempty"`
	// Jobs is the durable job subsystem's counter block (queue depths,
	// per-tenant counters, WAL fsync latency, poison count). Absent
	// when the job API is disabled.
	Jobs *jobs.Stats `json:"jobs,omitempty"`
	// Sessions is the compiler-daemon session block: resident sessions,
	// eviction counters, and per-session edit/reuse statistics. Absent
	// when the session API is disabled.
	Sessions *SessionCounters `json:"sessions,omitempty"`
}

// PhaseLatency is one phase's latency aggregate across every 200
// response served: how many times the phase ran, its total wall time,
// and the largest single-response wall time observed.
type PhaseLatency struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// ---------------------------------------------------------------------
// Handlers

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots every counter (exported for the soak harness and the
// binary's shutdown summary).
func (s *Server) Stats() StatsSnapshot {
	st := &s.stats
	snap := StatsSnapshot{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Draining:       s.draining.Load(),
		MaxConcurrency: s.cfg.MaxConcurrency,
		QueueDepth:     s.cfg.QueueDepth,
		InFlight:       s.inFlight.Load(),
		Queued:         s.queued.Load() - s.inFlight.Load(),
		Requests:       st.requests.Load(),
		OK:             st.ok.Load(),
		Degraded:       st.degraded.Load(),
		Shed:           st.shed.Load(),
		BadRequests:    st.badRequests.Load(),
		InputErrors:    st.inputErrors.Load(),
		BreakerOpen:    st.breakeropen.Load(),
		DrainRejects:   st.drainRejects.Load(),
		DeadlineFails:  st.deadline.Load(),
		InternalFails:  st.internal.Load(),
		Abandoned:      st.abandoned.Load(),
		RetriedReqs:    st.retriedReqs.Load(),
		RetriesTotal:   st.retriesTotal.Load(),
		Breaker:        s.breaker.Snapshot(),
	}
	if snap.Queued < 0 {
		snap.Queued = 0
	}
	st.mu.Lock()
	if len(st.degByAxis) > 0 {
		snap.DegByAxis = make(map[string]int64, len(st.degByAxis))
		for k, v := range st.degByAxis {
			snap.DegByAxis[k] = v
		}
	}
	if len(st.panicsPhase) > 0 {
		snap.PanicsByPhase = make(map[string]int64, len(st.panicsPhase))
		for k, v := range st.panicsPhase {
			snap.PanicsByPhase[k] = v
		}
	}
	if len(st.phaseAgg) > 0 {
		snap.PhaseLatencies = make(map[string]PhaseLatency, len(st.phaseAgg))
		for k, v := range st.phaseAgg {
			snap.PhaseLatencies[k] = *v
		}
	}
	st.mu.Unlock()
	if s.memo != nil {
		cs := s.memo.Stats()
		snap.AnalysisCache = &CacheCounters{
			Hits: cs.Hits, Misses: cs.Misses, Derived: cs.Derived, Evictions: cs.Evictions,
			Entries: cs.Entries, Bytes: cs.Bytes, MaxBytes: cs.MaxBytes,
		}
	}
	if s.results != nil {
		rc := s.results.counters()
		snap.ResultCache = &rc
	}
	if s.jobs != nil {
		js := s.jobs.Stats()
		snap.Jobs = &js
	}
	if s.sessions != nil {
		sc := s.sessions.counters()
		snap.Sessions = &sc
	}
	return snap
}

// handleAnalyze is the crash-only request path: admission control →
// parse → breaker → worker slot → deadline-bounded retry ladder.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	// Last-ditch insurance: the analyzer contract says faults surface as
	// errors, but a handler bug must still produce a response, not kill
	// the connection's goroutine state.
	defer func() {
		if rec := recover(); rec != nil {
			s.writeError(w, http.StatusServiceUnavailable, "handler-panic", fmt.Sprint(rec))
		}
	}()
	if r.Method != http.MethodPost {
		s.stats.badRequests.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	s.stats.requests.Add(1)

	if s.draining.Load() {
		s.stats.drainRejects.Add(1)
		// By the time the drain budget has passed, either a replacement
		// process is serving or this one is gone; both make the budget the
		// honest back-off horizon.
		w.Header().Set("Retry-After", retryAfter(s.cfg.DrainTimeout))
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}

	// Admission control: bound running + waiting requests; shed the rest
	// immediately so overload costs one counter increment, not a
	// goroutine parked forever.
	if s.queued.Add(1) > int64(s.cfg.MaxConcurrency+s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.stats.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter(s.shedBackoff()))
		s.writeError(w, http.StatusTooManyRequests, "shed", "work queue full")
		return
	}
	defer s.queued.Add(-1)

	var req AnalyzeRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.stats.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad-request", "invalid JSON body: "+err.Error())
		return
	}
	cfg, err := req.Config.ToIPCP()
	if err != nil {
		s.stats.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	// The service gets its parallelism from concurrent requests;
	// per-request analysis stays at the configured (default serial)
	// worker count, and FailFast hands the retry/degrade policy to the
	// ladder below instead of the in-library chain.
	cfg.Parallelism = s.cfg.AnalysisParallelism
	cfg.FailFast = true
	cfg.Cache = s.memo

	if req.Filename == "" {
		req.Filename = "request.f"
	}
	// A repeated clean request replays its stored response without
	// consuming a worker slot or a breaker verdict — cached results stay
	// available even while the breaker is open.
	key := resultKey(req.Filename, req.Source, cfg, req.Want)
	if s.results != nil {
		if body, ok := s.results.get(key); ok {
			s.stats.ok.Add(1)
			s.writeRaw(w, http.StatusOK, body)
			return
		}
	}

	if ok, after := s.breaker.Allow(); !ok {
		s.stats.breakeropen.Add(1)
		w.Header().Set("Retry-After", retryAfter(after))
		s.writeError(w, http.StatusServiceUnavailable, "breaker-open", "circuit breaker open")
		return
	}
	// From here on the breaker must hear back exactly once.

	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		s.breaker.Neutral()
		s.stats.abandoned.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "canceled", "client went away while queued")
		return
	}
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		<-s.sem
	}()

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// The breaker has admitted the request; run the analysis phase
	// through the pass manager, whose retrying middleware owns the
	// ladder and writes the response.
	_ = s.reqPL.RunPhase(ctx, phaseRequest, &reqState{w: w, req: &req, cfg: cfg, key: key, start: time.Now()})
}

// shedBackoff estimates how long a shed client should wait before the
// queue has drained: a full queue is capacity requests deep, each
// worker retires one about every EWMA-latency interval. Before any
// request has completed (no latency signal yet) it falls back to 1s;
// the estimate is capped at 30s so a latency spike cannot tell clients
// to go away for minutes, and floored at 1s: "Retry-After: 0" reads as
// "retry immediately" and turns shedding into a tight retry loop, so
// the floor is enforced here at derivation (and again in retryAfter's
// rendering) so no path can emit it.
func (s *Server) shedBackoff() time.Duration {
	ewma := time.Duration(s.stats.latencyEWMA.Load())
	if ewma <= 0 {
		return time.Second
	}
	capacity := s.cfg.MaxConcurrency + s.cfg.QueueDepth
	rounds := (capacity + s.cfg.MaxConcurrency - 1) / s.cfg.MaxConcurrency
	d := time.Duration(rounds) * ewma
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// observeLatency folds one served analysis's wall time into the EWMA
// (α = 1/8) that sizes shed Retry-After values.
func (s *Server) observeLatency(d time.Duration) {
	obs := int64(d)
	for {
		old := s.stats.latencyEWMA.Load()
		next := obs
		if old > 0 {
			next = old + (obs-old)/8
		}
		if s.stats.latencyEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// reqState is one request's pipeline state: the response writer the
// ladder reports into, the (progressively degraded) configuration, and
// the attempt's result.
type reqState struct {
	w       http.ResponseWriter
	req     *AnalyzeRequest
	cfg     ipcp.Config
	key     string
	start   time.Time
	retries int
	res     *ipcp.Result
}

// phaseRequest is one deadline-bounded analysis attempt.
var phaseRequest = pipeline.Phase[*reqState]{
	Name: "analyze",
	Run: func(ctx context.Context, st *reqState) error {
		res, err := ipcp.AnalyzeContext(ctx, st.req.Filename, st.req.Source, st.cfg)
		if err != nil {
			return err
		}
		st.res = res
		return nil
	},
}

// retrying is the service's retry/degrade ladder as pipeline middleware
// around the analysis attempt: transient failures re-run the phase at a
// cheaper configuration after a capped, jittered backoff; every outcome
// writes the response and settles the breaker exactly once.
func (s *Server) retrying() pipeline.Middleware[*reqState] {
	return func(phase string, next pipeline.RunFunc[*reqState]) pipeline.RunFunc[*reqState] {
		return func(ctx context.Context, st *reqState) error {
			for {
				err := next(ctx, st)
				if err == nil {
					s.breaker.Success()
					s.observeLatency(time.Since(st.start))
					s.writeResult(st.w, st.req, st.cfg, st.res, st.retries, st.key)
					return nil
				}
				class, retryable, userFault := classify(err)
				if userFault {
					s.breaker.Neutral()
					s.stats.inputErrors.Add(1)
					s.writeError(st.w, http.StatusUnprocessableEntity, "input", err.Error())
					return nil
				}
				if errors.Is(err, context.Canceled) {
					// The client went away, not the analyzer: no breaker verdict.
					s.breaker.Neutral()
					s.stats.abandoned.Add(1)
					s.writeError(st.w, http.StatusServiceUnavailable, "canceled", "request canceled")
					return nil
				}
				s.recordFailureClass(err)
				if !retryable || st.retries >= s.cfg.MaxRetries || ctx.Err() != nil {
					// The breaker's verdict doubles as the back-off hint: the
					// closer the circuit is to (or into) its cooldown, the
					// longer the client is told to stay away.
					backoff := s.breaker.Failure(class)
					if class == "exhausted:deadline" {
						s.stats.deadline.Add(1)
					} else {
						s.stats.internal.Add(1)
					}
					st.w.Header().Set("Retry-After", retryAfter(backoff))
					s.writeError(st.w, http.StatusServiceUnavailable, class, err.Error())
					return nil
				}
				if st.retries == 0 {
					s.stats.retriedReqs.Add(1)
				}
				st.retries++
				s.stats.retriesTotal.Add(1)
				// Re-run cheaper: one step down the sound degradation chain per
				// retry (staying at Literal once there), after a capped, jittered
				// exponential backoff.
				st.cfg = degradeConfig(st.cfg)
				s.sleep(ctx, backoff.Delay(st.retries, s.cfg.RetryBaseDelay, s.cfg.RetryMaxDelay, s.jitter))
			}
		}
	}
}

// degradeConfig steps one rung down the sound fallback chain (the same
// chain the in-library degradation uses): complete off, gated off, then
// Polynomial → PassThrough → Intraprocedural → Literal. At Literal it
// returns the config unchanged — a pure backoff retry.
func degradeConfig(c ipcp.Config) ipcp.Config {
	switch {
	case c.Complete:
		c.Complete = false
	case c.Gated:
		c.Gated = false
	case c.Kind > ipcp.Literal:
		c.Kind--
	}
	return c
}

// classify sorts an analysis error into a breaker class and retry
// policy. userFault errors (program diagnostics) are 422s that say
// nothing about service health.
func classify(err error) (class string, retryable, userFault bool) {
	var ie *ipcp.InternalError
	if errors.As(err, &ie) {
		return "panic:" + string(ie.Phase), true, false
	}
	var be *ipcp.BudgetError
	if errors.As(err, &be) {
		if be.Axis == "deadline" {
			// The clock is gone; a retry under the same dead context
			// cannot succeed.
			return "exhausted:deadline", false, false
		}
		return "exhausted:" + be.Axis, true, false
	}
	return "input", false, true
}

// recordFailureClass books per-phase / per-axis failure counters.
func (s *Server) recordFailureClass(err error) {
	var ie *ipcp.InternalError
	if errors.As(err, &ie) {
		s.stats.mu.Lock()
		s.stats.panicsPhase[string(ie.Phase)]++
		s.stats.mu.Unlock()
	}
}

// writeResult renders the 200 response, storing clean ones — status
// "ok", no retries, no degradations — in the result cache so identical
// requests replay identical bytes.
func (s *Server) writeResult(w http.ResponseWriter, req *AnalyzeRequest, cfg ipcp.Config, res *ipcp.Result, retries int, key string) {
	body, degraded := s.renderResult(req, cfg, res, retries)
	if degraded {
		s.stats.degraded.Add(1)
	} else {
		s.stats.ok.Add(1)
	}
	if s.results != nil && !degraded {
		s.results.put(key, body)
	}
	s.writeRaw(w, http.StatusOK, body)
}

// renderResult builds the 200 body for one finished analysis — the
// single rendering path shared by the synchronous handler and the job
// executor, which is what makes an async job's stored result
// byte-identical to the synchronous response for the same request. It
// folds per-phase latencies and degradation counters into /statsz but
// leaves response-disposition counters (ok/degraded, caching, writing)
// to the caller.
func (s *Server) renderResult(req *AnalyzeRequest, cfg ipcp.Config, res *ipcp.Result, retries int) (body []byte, degraded bool) {
	resp := AnalyzeResponse{
		Status:        "ok",
		Config:        describeConfig(cfg),
		Retries:       retries,
		Constants:     make(map[string][]ConstantJSON),
		Substitutions: res.SubstitutionCount(),
		Warnings:      res.Warnings,
	}
	evals, _, rounds := res.Stats()
	resp.JFEvaluations = evals
	resp.SolverRounds = rounds
	for proc, ks := range res.Constants() {
		out := make([]ConstantJSON, 0, len(ks))
		for _, k := range ks {
			out = append(out, ConstantJSON{
				Name: k.Name, Value: k.Value, Global: k.IsGlobal,
				Block: k.Block, Referenced: k.Referenced,
			})
		}
		resp.Constants[proc] = out
	}
	if d := res.Domain(); d != "const" {
		resp.Domain = d
		resp.Facts = make(map[string][]FactJSON)
		for proc, fs := range res.Facts() {
			out := make([]FactJSON, 0, len(fs))
			for _, f := range fs {
				out = append(out, FactJSON{Name: f.Name, Value: f.Value, Global: f.IsGlobal, Block: f.Block})
			}
			resp.Facts[proc] = out
		}
	}
	if len(res.Degradations) > 0 || retries > 0 {
		resp.Status = "degraded"
	}
	s.stats.mu.Lock()
	for _, d := range res.Degradations {
		s.stats.degByAxis[d.Axis]++
		resp.Degradations = append(resp.Degradations, DegradationJSON{
			Axis: d.Axis, From: d.From, To: d.To, Detail: d.Detail,
		})
	}
	for _, ps := range res.PhaseStats {
		agg := s.stats.phaseAgg[ps.Phase]
		if agg == nil {
			agg = &PhaseLatency{}
			s.stats.phaseAgg[ps.Phase] = agg
		}
		agg.Count += ps.Runs
		agg.TotalNs += ps.WallNs
		if ps.WallNs > agg.MaxNs {
			agg.MaxNs = ps.WallNs
		}
	}
	s.stats.mu.Unlock()
	if req.Want.JumpFunctions {
		resp.JumpFunctions = res.JumpFunctions()
	}
	if req.Want.Transformed {
		resp.Transformed = res.TransformedSource()
	}
	return renderJSON(resp), resp.Status == "degraded"
}

// describeConfig names the configuration a response was served at.
func describeConfig(c ipcp.Config) string {
	name := c.Kind.String()
	if c.Gated {
		name += "+gated"
	}
	if c.Complete {
		name += "+complete"
	}
	if c.Domain != "" && c.Domain != "const" {
		name = c.Domain + "/" + name
	}
	return name
}

func (s *Server) writeError(w http.ResponseWriter, status int, class, msg string) {
	s.writeJSON(w, status, ErrorResponse{Error: ErrorBody{Class: class, Message: msg}})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	s.writeRaw(w, status, renderJSON(v))
}

func (s *Server) writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // client gone: nothing useful to do
}

// renderJSON marshals exactly as the previous streaming encoder did
// (two-space indent, trailing newline) so response bytes — cached or
// not — stay stable.
func renderJSON(v interface{}) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Unreachable for the wire types; keep the response well-formed.
		return []byte("{}\n")
	}
	return append(b, '\n')
}

// retryAfter renders a duration as a whole-seconds Retry-After value
// (minimum 1).
func retryAfter(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// ToIPCP converts the wire configuration, validating enum fields. The
// cluster coordinator uses it to derive the routing fingerprint from
// the same conversion the backend will apply.
func (rc RequestConfig) ToIPCP() (ipcp.Config, error) {
	cfg := ipcp.DefaultConfig()
	switch rc.Kind {
	case "", "passthrough":
		cfg.Kind = ipcp.PassThrough
	case "literal":
		cfg.Kind = ipcp.Literal
	case "intra":
		cfg.Kind = ipcp.Intraprocedural
	case "polynomial":
		cfg.Kind = ipcp.Polynomial
	default:
		return cfg, fmt.Errorf("unknown jump function kind %q", rc.Kind)
	}
	if rc.Mod != nil {
		cfg.UseMOD = *rc.Mod
	}
	if rc.Ret != nil {
		cfg.UseReturnJFs = *rc.Ret
	}
	cfg.Complete = rc.Complete
	cfg.Gated = rc.Gated
	switch rc.Solver {
	case "", "worklist":
		cfg.Solver = ipcp.Worklist
	case "binding":
		cfg.Solver = ipcp.BindingGraph
	default:
		return cfg, fmt.Errorf("unknown solver %q", rc.Solver)
	}
	cfg.Domain = rc.Domain
	if _, err := domain.Lookup(rc.Domain); err != nil {
		return cfg, err
	}
	if rc.Domain == "" {
		// Canonicalize so "" and "const" — the same configuration —
		// share one result-cache key and one routing fingerprint.
		cfg.Domain = "const"
	}
	cfg.Budget = ipcp.Budget{
		MaxSolverSteps: rc.MaxSolverSteps,
		MaxRounds:      rc.MaxRounds,
		MaxJFExprSize:  rc.MaxExprSize,
	}
	return cfg, nil
}
