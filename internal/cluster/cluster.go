// Package cluster is the fault-tolerant sharded coordinator: one
// process that fronts N ipcp-serve backends and keeps the fleet
// correct and available while individual backends die, hang, restart,
// or shed load.
//
// Correctness is the non-negotiable: the coordinator never rewrites a
// backend's answer. It decodes a request only far enough to compute
// its routing key, forwards the original body bytes verbatim, and
// relays the first authoritative response (200/400/422) untouched —
// so every 200 a client sees is byte-identical to what a single
// backend would have produced, no matter how many reroutes or hedges
// happened along the way. Analysis is a pure function of
// (source, config), which is what makes duplicate in-flight attempts
// (hedges, failovers) safe: at worst they waste work, never answers.
//
// The machinery, layered in request order:
//
//   - Affinity routing: the routing key is ipcp.Fingerprint — the same
//     content-addressed hashing the incremental-analysis memo cache
//     keys on — ranked by rendezvous (highest-random-weight) hashing,
//     so repeated and edited variants of a program land on the backend
//     whose memo cache is already warm, and backend loss remaps only
//     the keys that preferred the lost backend.
//   - Health checking: every backend's /readyz is probed continuously
//     and its /statsz folded into the coordinator's own /statsz;
//     unhealthy backends are deprioritized (never removed — an
//     answering "down" backend beats a synthesized 503).
//   - Per-backend circuit breakers (serve.Breaker): transport errors
//     and 503s trip a backend's circuit; an open circuit skips the
//     backend until a half-open probe proves it back.
//   - Bounded in-flight per backend: attempts take a slot or skip to
//     the next hash candidate, so one slow backend cannot absorb the
//     fleet's concurrency.
//   - Failover: a retryable failure (transport error, 429, 503)
//     reroutes to the next hash candidate after a capped, jittered
//     backoff that honors the backend's Retry-After hint.
//   - Hedging: when the primary attempt outlives a latency quantile of
//     recent successes, a second attempt goes to the next candidate;
//     the first authoritative answer wins and the loser is canceled.
//   - Graceful drain: /readyz flips, in-flight proxies finish, then
//     the listener closes.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/serve"
	"repro/ipcp"
)

// Config tunes the coordinator. The zero value of each field selects
// the documented default; Backends is required.
type Config struct {
	// Backends lists the ipcp-serve base URLs (e.g.
	// "http://10.0.0.1:8077"). A bare host:port gets "http://"
	// prepended.
	Backends []string
	// HealthInterval is the /readyz + /statsz probe period per backend
	// (default 500ms); HealthTimeout bounds one probe (default
	// HealthInterval, capped at 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// RequestTimeout caps one client request's wall clock across every
	// failover and hedge (default 30s).
	RequestTimeout time.Duration
	// MaxAttempts caps distinct backend attempts per request, hedges
	// included (default len(Backends)+1: every backend once, plus one
	// hedge).
	MaxAttempts int
	// HedgeAfter, when positive, is a fixed delay before the hedge
	// attempt launches. Zero selects adaptive hedging: the
	// HedgeQuantile (default 0.95) of recent successful latencies, once
	// HedgeMinSamples (default 16) have been observed, 100ms before
	// that.
	HedgeAfter      time.Duration
	HedgeQuantile   float64
	HedgeMinSamples int
	// MaxInFlightPerBackend bounds concurrently proxied requests per
	// backend (default 32).
	MaxInFlightPerBackend int
	// RetryBaseDelay and RetryMaxDelay shape the capped, jittered
	// exponential backoff between failover attempts (defaults 5ms and
	// 250ms); a backend's Retry-After hint raises the wait up to
	// RetryHintCap (default 2s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	RetryHintCap   time.Duration
	// Per-backend circuit settings (defaults: 3 consecutive failures
	// trip, 2s cooldown, 1 probe closes).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	BreakerProbes    int
	// DrainTimeout bounds graceful shutdown (default 5s).
	DrainTimeout time.Duration
	// MaxBodyBytes caps the request body (default 8 MiB, matching the
	// backends).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = c.HealthInterval
		if c.HealthTimeout > time.Second {
			c.HealthTimeout = time.Second
		}
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = len(c.Backends) + 1
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 16
	}
	if c.MaxInFlightPerBackend <= 0 {
		c.MaxInFlightPerBackend = 32
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 5 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 250 * time.Millisecond
	}
	if c.RetryHintCap <= 0 {
		c.RetryHintCap = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.BreakerProbes <= 0 {
		c.BreakerProbes = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Coordinator fronts a fleet of ipcp-serve backends.
type Coordinator struct {
	cfg      Config
	backends []*backend
	client   *http.Client
	lat      *latencyTracker
	draining atomic.Bool
	started  time.Time
	http     *http.Server

	stopHealth chan struct{}
	healthWG   sync.WaitGroup

	// owners remembers which backend acked each job ID so polls and
	// cancels go straight to the WAL that holds the job; misses (e.g.
	// after a coordinator restart — the map is memory-only by design,
	// the durable state lives in the backends' WALs) fall back to a
	// fleet-wide broadcast.
	ownerMu sync.Mutex
	owners  map[string]ownerRec

	// test seams
	sleep  func(ctx context.Context, d time.Duration)
	jitter func() float64

	stats coordStats
}

type coordStats struct {
	requests      atomic.Int64 // POST /v1/analyze received
	ok            atomic.Int64 // 200 relayed
	inputErrors   atomic.Int64 // 400/422 relayed from a backend
	badRequests   atomic.Int64 // coordinator-level 400/405
	drainRejects  atomic.Int64 // 503 while draining
	unavailable   atomic.Int64 // 503: no backend could answer
	deadlineFails atomic.Int64 // 503: request budget exhausted
	abandoned     atomic.Int64 // client gone mid-request
	reroutes      atomic.Int64 // failovers to another backend
	hedgesStarted atomic.Int64
	hedgesWon     atomic.Int64 // served response came from the hedge
	hedgesLost    atomic.Int64 // primary won while a hedge was in flight
	breakerSkips  atomic.Int64 // candidates skipped by an open circuit
	slotSkips     atomic.Int64 // candidates skipped with all slots busy

	jobSubmits    atomic.Int64 // POST /v1/jobs received
	jobLookups    atomic.Int64 // per-job GET/DELETE received
	jobBroadcasts atomic.Int64 // lookups that needed a fleet-wide search

	sessionOpens      atomic.Int64 // POST /v1/sessions received
	sessionLookups    atomic.Int64 // per-session edit/result/DELETE received
	sessionBroadcasts atomic.Int64 // lookups that needed a fleet-wide search
}

// New validates cfg and returns a Coordinator with its health checkers
// running.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:        cfg,
		started:    time.Now(),
		lat:        newLatencyTracker(256),
		stopHealth: make(chan struct{}),
		owners:     make(map[string]ownerRec),
		jitter:     rand.Float64,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: cfg.MaxInFlightPerBackend,
			},
		},
	}
	c.sleep = func(ctx context.Context, d time.Duration) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	seen := make(map[string]bool)
	for _, u := range cfg.Backends {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, errors.New("cluster: empty backend URL")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate backend %s", u)
		}
		seen[u] = true
		b := &backend{
			url:   u,
			slots: make(chan struct{}, cfg.MaxInFlightPerBackend),
			br:    serve.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.BreakerProbes),
		}
		// Optimistic until the first probe answers: a coordinator that
		// boots before its backends must still route, and the breaker
		// catches real refusals immediately.
		b.healthy.Store(true)
		c.backends = append(c.backends, b)
	}
	for _, b := range c.backends {
		c.healthWG.Add(1)
		go c.healthLoop(b)
	}
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", c.handleAnalyze)
	mux.HandleFunc("/v1/jobs", c.handleJobs)
	mux.HandleFunc("/v1/jobs/watch", c.handleJobsWatch)
	mux.HandleFunc("/v1/jobs/", c.handleJobByID)
	mux.HandleFunc("/v1/sessions", c.handleSessions)
	mux.HandleFunc("/v1/sessions/", c.handleSessionByID)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/statsz", c.handleStatsz)
	return mux
}

// Serve accepts connections on l until Shutdown; it returns
// http.ErrServerClosed after a graceful shutdown.
func (c *Coordinator) Serve(l net.Listener) error {
	c.http = &http.Server{Handler: c.Handler()}
	return c.http.Serve(l)
}

// BeginDrain flips the coordinator to draining without closing the
// listener: /readyz answers 503 and new analyses are refused, giving
// an upstream load balancer time to route away before Shutdown.
func (c *Coordinator) BeginDrain() { c.draining.Store(true) }

// Shutdown drains the coordinator: new work is refused, in-flight
// proxied requests get up to DrainTimeout to finish, health checkers
// stop, then connections close.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.BeginDrain()
	c.stopHealthChecks()
	defer c.client.CloseIdleConnections()
	if c.http == nil {
		return nil
	}
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DrainTimeout)
	defer cancel()
	return c.http.Shutdown(dctx)
}

func (c *Coordinator) stopHealthChecks() {
	select {
	case <-c.stopHealth:
	default:
		close(c.stopHealth)
	}
	c.healthWG.Wait()
}

// ---------------------------------------------------------------------
// Request path

func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			c.writeError(w, http.StatusServiceUnavailable, "handler-panic", fmt.Sprint(rec), 0)
		}
	}()
	if r.Method != http.MethodPost {
		c.stats.badRequests.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		c.writeError(w, http.StatusMethodNotAllowed, "method", "POST required", 0)
		return
	}
	c.stats.requests.Add(1)
	if c.draining.Load() {
		c.stats.drainRejects.Add(1)
		c.writeError(w, http.StatusServiceUnavailable, "draining", "coordinator is draining", c.cfg.DrainTimeout)
		return
	}

	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), 0)
		return
	}
	// Decode only to derive the routing key; the bytes forwarded to the
	// backend are the client's, verbatim, so backend behavior is
	// identical to a direct request.
	var req serve.AnalyzeRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", "invalid JSON body: "+err.Error(), 0)
		return
	}
	cfg, err := req.Config.ToIPCP()
	if err != nil {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	if req.Filename == "" {
		req.Filename = "request.f" // the backends' default, so keys agree
	}
	key := ipcp.Fingerprint(req.Filename, req.Source, cfg)

	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()
	c.proxy(ctx, w, rank(c.backends, key), "/v1/analyze", raw)
}

// attemptOutcome is one backend attempt's result.
type attemptOutcome struct {
	b          *backend
	hedge      bool
	code       int
	retryAfter string
	body       []byte
	elapsed    time.Duration
	err        error
	canceled   bool
}

// final reports whether the outcome is an authoritative answer the
// client should see: an analysis (200), a durable job ack (202), or
// the backend's deterministic verdict on the input (400/422).
// Everything else — transport errors, shed 429s, 503s — is the
// backend's unavailability, and the next candidate may still answer.
func (o attemptOutcome) final() bool {
	if o.err != nil {
		return false
	}
	switch o.code {
	case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusUnprocessableEntity:
		return true
	}
	return false
}

// retryAfterHint parses the backend's whole-seconds Retry-After, zero
// when absent or unparseable.
func (o attemptOutcome) retryAfterHint() time.Duration {
	if o.retryAfter == "" {
		return 0
	}
	secs, err := strconv.Atoi(o.retryAfter)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// proxy drives one client request through the candidate order:
// primary attempt, hedge on the latency quantile, failover on
// retryable failure, first authoritative answer relayed verbatim.
// It returns the relayed outcome (nil when no candidate answered) so
// callers like the job-submit path can inspect the winning backend.
func (c *Coordinator) proxy(ctx context.Context, w http.ResponseWriter, cands []*backend, path string, raw []byte) *attemptOutcome {
	results := make(chan attemptOutcome, c.cfg.MaxAttempts)
	var cancels []context.CancelFunc
	defer func() {
		for _, cf := range cancels {
			cf()
		}
	}()

	next, attempts, inFlight := 0, 0, 0
	var lastHint time.Duration
	// launch starts an attempt on the next viable candidate: circuit
	// must admit it and a slot must be free, else the candidate is
	// skipped (the skip is free — no backoff, no verdict).
	launch := func(hedge bool) bool {
		for next < len(cands) && attempts < c.cfg.MaxAttempts {
			b := cands[next]
			next++
			ok, after := b.br.Allow()
			if !ok {
				c.stats.breakerSkips.Add(1)
				if after > lastHint {
					lastHint = after
				}
				continue
			}
			if !b.acquire() {
				b.br.Neutral()
				c.stats.slotSkips.Add(1)
				continue
			}
			attempts++
			inFlight++
			actx, cancel := context.WithCancel(ctx)
			cancels = append(cancels, cancel)
			b.requests.Add(1)
			go c.attempt(actx, b, path, raw, hedge, results)
			return true
		}
		return false
	}

	if !launch(false) {
		c.writeUnavailable(w, "every backend rejected the request before an attempt started", lastHint, "")
		return nil
	}
	hedged := false
	hedgeTimer := time.NewTimer(c.hedgeDelay())
	defer hedgeTimer.Stop()

	reroutes := 0
	var lastFail attemptOutcome
	for {
		select {
		case <-hedgeTimer.C:
			// One hedge per request: the primary has outlived the latency
			// quantile, so race the next candidate against it.
			if !hedged && launch(true) {
				hedged = true
				c.stats.hedgesStarted.Add(1)
			}
			continue
		case out := <-results:
			inFlight--
			if out.final() {
				if hedged {
					if out.hedge {
						c.stats.hedgesWon.Add(1)
					} else {
						c.stats.hedgesLost.Add(1)
					}
				}
				c.relay(w, out)
				return &out
			}
			lastFail = out
			if hint := out.retryAfterHint(); hint > lastHint {
				lastHint = hint
			}
			if inFlight > 0 {
				continue // a sibling attempt may still win
			}
			if out.canceled {
				// Our own context died mid-attempt; report the budget, not
				// the backend.
				break
			}
			// Reroute: back off (honoring the failed backend's hint up to
			// the cap) and try the next candidate.
			reroutes++
			c.stats.reroutes.Add(1)
			c.sleep(ctx, c.failoverDelay(reroutes, lastFail.retryAfterHint()))
			if ctx.Err() == nil && launch(false) {
				continue
			}
			if ctx.Err() != nil {
				break // budget gone: fall through to the deadline answer
			}
			c.writeUnavailable(w, lastFailMessage(lastFail, attempts), lastHint, lastFail.retryAfter)
			return nil
		case <-ctx.Done():
		}
		// ctx died (directly, or observed via a canceled attempt).
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			c.stats.deadlineFails.Add(1)
			c.writeError(w, http.StatusServiceUnavailable, "deadline", "request budget exhausted across attempts", time.Second)
		} else {
			c.stats.abandoned.Add(1)
			c.writeError(w, http.StatusServiceUnavailable, "canceled", "client went away", 0)
		}
		return nil
	}
}

func lastFailMessage(out attemptOutcome, attempts int) string {
	switch {
	case out.err != nil:
		return fmt.Sprintf("all %d attempts failed; last: %v", attempts, out.err)
	case out.code != 0:
		return fmt.Sprintf("all %d attempts failed; last: backend answered %d", attempts, out.code)
	default:
		return fmt.Sprintf("all %d attempts failed", attempts)
	}
}

// attempt proxies raw to one backend, settles its breaker exactly
// once, releases its slot, and reports the outcome.
func (c *Coordinator) attempt(ctx context.Context, b *backend, path string, raw []byte, hedge bool, results chan<- attemptOutcome) {
	start := time.Now()
	out := attemptOutcome{b: b, hedge: hedge}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(raw))
	if err != nil {
		out.err = err
	} else {
		req.Header.Set("Content-Type", "application/json")
		resp, derr := c.client.Do(req)
		if derr != nil {
			out.err = derr
		} else {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				out.err = rerr
			} else {
				out.code = resp.StatusCode
				out.retryAfter = resp.Header.Get("Retry-After")
				out.body = body
			}
		}
	}
	out.elapsed = time.Since(start)
	b.release()
	switch {
	case out.err != nil:
		if ctx.Err() != nil {
			// The coordinator canceled this attempt (a sibling won, or the
			// request budget died): no verdict on the backend.
			out.canceled = true
			b.br.Neutral()
		} else {
			b.br.Failure("transport")
			b.failures.Add(1)
			// A refused connection is authoritative about liveness; flip
			// immediately instead of waiting for the next probe tick.
			b.setHealthy(false)
		}
	case out.code == http.StatusOK, out.code == http.StatusAccepted:
		b.br.Success()
	case out.code == http.StatusBadRequest,
		out.code == http.StatusUnprocessableEntity,
		out.code == http.StatusTooManyRequests:
		// 400/422 are verdicts on the input; 429 means loaded, not
		// broken — neither says the backend is unhealthy.
		b.br.Neutral()
	default:
		b.br.Failure(failClass(out))
		b.failures.Add(1)
	}
	results <- out
}

// failClass names a failed attempt for the per-backend breaker and
// stats: the backend's own error class when the body parses, the bare
// status code otherwise.
func failClass(out attemptOutcome) string {
	var er serve.ErrorResponse
	if json.Unmarshal(out.body, &er) == nil && er.Error.Class != "" {
		return "upstream:" + er.Error.Class
	}
	return fmt.Sprintf("http-%d", out.code)
}

// hedgeDelay is how long the primary attempt may run before the hedge
// launches: the configured fixed delay, or the adaptive quantile of
// recent successful latencies (100ms until the tracker warms up),
// bounded by a quarter of the request budget.
func (c *Coordinator) hedgeDelay() time.Duration {
	d := c.cfg.HedgeAfter
	if d <= 0 {
		if q, ok := c.lat.quantile(c.cfg.HedgeQuantile, c.cfg.HedgeMinSamples); ok {
			d = q
		} else {
			d = 100 * time.Millisecond
		}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if max := c.cfg.RequestTimeout / 4; d > max {
		d = max
	}
	return d
}

// failoverDelay is the wait before reroute n (n >= 1): capped jittered
// exponential backoff, raised to the failed backend's Retry-After hint
// up to RetryHintCap.
func (c *Coordinator) failoverDelay(n int, hint time.Duration) time.Duration {
	d := backoff.Delay(n, c.cfg.RetryBaseDelay, c.cfg.RetryMaxDelay, c.jitter)
	if hint > d {
		d = hint
		if d > c.cfg.RetryHintCap {
			d = c.cfg.RetryHintCap
		}
	}
	return d
}

// relay writes a backend's authoritative response to the client,
// byte-for-byte.
func (c *Coordinator) relay(w http.ResponseWriter, out attemptOutcome) {
	switch out.code {
	case http.StatusOK:
		c.stats.ok.Add(1)
		c.lat.observe(out.elapsed)
	case http.StatusAccepted:
		// A job ack is a success, but its latency is queueing, not
		// analysis — keep it out of the hedge quantile.
		c.stats.ok.Add(1)
	default:
		c.stats.inputErrors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	if out.retryAfter != "" {
		w.Header().Set("Retry-After", out.retryAfter)
	}
	w.WriteHeader(out.code)
	_, _ = w.Write(out.body)
}

// writeUnavailable is the give-up answer after every candidate failed.
// When the last backend supplied a Retry-After (verbatim != "") — the
// whole fleet is shedding or draining — that hint is relayed byte-for-
// byte: the backend knows its own drain budget and queue depth, and a
// coordinator-derived value would misinform exactly the clients that
// most need an honest back-off. Otherwise the breaker/hint estimate is
// used, floored at one second.
func (c *Coordinator) writeUnavailable(w http.ResponseWriter, msg string, hint time.Duration, verbatim string) {
	c.stats.unavailable.Add(1)
	if verbatim != "" {
		w.Header().Set("Retry-After", verbatim)
		c.writeError(w, http.StatusServiceUnavailable, "unavailable", msg, 0)
		return
	}
	if hint < time.Second {
		hint = time.Second
	}
	c.writeError(w, http.StatusServiceUnavailable, "unavailable", msg, hint)
}

// writeError renders a coordinator-origin error in the backends' wire
// shape (serve.ErrorResponse), so clients parse one error format
// fleet-wide. Classes originating here: bad-request, method, draining,
// unavailable, deadline, canceled, handler-panic.
func (c *Coordinator) writeError(w http.ResponseWriter, status int, class, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	body, err := json.MarshalIndent(serve.ErrorResponse{Error: serve.ErrorBody{Class: class, Message: msg}}, "", "  ")
	if err != nil {
		body = []byte("{}")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}
