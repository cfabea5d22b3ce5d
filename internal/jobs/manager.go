package jobs

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/ipcp"
)

// State is a job's position in the lifecycle state machine:
//
//	queued → running → done
//	                 ↘ poisoned   (MaxAttempts transient failures, or a
//	                               non-retryable internal error)
//	queued|running   → expired    (TTL deadline passed)
//	queued|running   → canceled   (client DELETE)
//
// done, poisoned, expired, and canceled are terminal; a replayed job
// that was running at the crash restarts as queued (its attempt count
// survives, so the poison threshold cannot be dodged by crashing).
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StatePoisoned State = "poisoned"
	StateExpired  State = "expired"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StatePoisoned, StateExpired, StateCanceled:
		return true
	}
	return false
}

// DefaultTenant is the tenant jobs land under when the submission
// names none.
const DefaultTenant = "default"

// ExecOutcome is what one execution attempt produced. A nonzero Code
// means the attempt reached a verdict a synchronous client would have
// been sent (200 success or 4xx user fault): the job is done and Body
// holds the exact bytes the synchronous endpoint would have written.
// Code 0 means the attempt failed; Class/Err attribute it and
// Retryable says whether another attempt (one step down the
// degradation chain) could succeed.
type ExecOutcome struct {
	Code      int
	Body      []byte
	Class     string
	Err       string
	Retryable bool
}

// Executor runs one job attempt. internal/serve supplies the
// implementation that decodes the spec, runs the analyzer with the
// attempt's degraded config, and renders the response bytes. It must
// honor ctx (the manager cancels it on job cancellation, TTL expiry,
// and crash simulation) and must be safe for concurrent use.
type Executor interface {
	Execute(ctx context.Context, spec json.RawMessage, attempt int) ExecOutcome
}

// Submission is one job of a batch: the raw request spec (journaled
// and re-decoded verbatim on replay), its idempotency fingerprint
// (ipcp.Fingerprint of the program + memo-relevant config), and the
// requested TTL (0 = server default).
type Submission struct {
	Spec        json.RawMessage
	Fingerprint string
	TTL         time.Duration
}

// Ack is the acknowledgment for one submitted job. Deduped means the
// fingerprint matched a retained job for the same tenant and no new
// job was created — the idempotency half of exactly-once-observable.
type Ack struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	Deduped     bool   `json:"deduped,omitempty"`
}

// JobView is a job's externally visible state (everything except the
// result body, which Result serves verbatim).
type JobView struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	Attempts    int    `json:"attempts,omitempty"`
	Class       string `json:"error_class,omitempty"`
	Error       string `json:"error,omitempty"`
	Code        int    `json:"result_code,omitempty"`
	SubmittedMs int64  `json:"submitted_ms"`
	DeadlineMs  int64  `json:"deadline_ms"`
	FinishedMs  int64  `json:"finished_ms,omitempty"`
}

// QuotaError rejects a whole batch that would push its tenant past
// MaxQueued. RetryAfter is the backoff hint (already floored ≥ 1s)
// the server relays as a Retry-After header on the 429.
type QuotaError struct {
	Tenant     string
	Queued     int
	Limit      int
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q queue quota exceeded (%d queued, limit %d)", e.Tenant, e.Queued, e.Limit)
}

// ErrDraining rejects submissions while the manager is draining or
// after it has been killed.
var ErrDraining = errors.New("jobs: manager is draining")

// Config configures a Manager. Zero values select the documented
// defaults.
type Config struct {
	// Dir is the WAL directory (required).
	Dir string
	// Executor runs job attempts (required).
	Executor Executor
	// Workers is the number of concurrent job executions (default 4).
	Workers int
	// Policy sets attempts/TTL/retention defaults (see ipcp.JobPolicy).
	Policy ipcp.JobPolicy
	// DefaultQuota applies to tenants absent from Tenants.
	DefaultQuota ipcp.TenantQuota
	// Tenants pins per-tenant quotas by name.
	Tenants map[string]ipcp.TenantQuota
	// SegmentBytes rotates WAL segments at this size (default 4 MiB).
	SegmentBytes int64
	// CompactSegments checkpoints once more than this many full
	// segments accumulate (default 4).
	CompactSegments int
	// RetryBase/RetryMaxDelay shape the retry backoff ladder
	// (defaults 100ms / 5s; delay = RetryBase << attempt, capped).
	RetryBase     time.Duration
	RetryMaxDelay time.Duration
	// SweepInterval paces the TTL/retention/compaction sweeper
	// (default 200ms).
	SweepInterval time.Duration
}

type tenantState struct {
	name        string
	weight      int
	maxQueued   int
	maxInFlight int

	vfinish  float64
	queue    []*job
	inFlight int

	submitted, deduped     int64
	done, poisoned         int64
	expired, canceled      int64
	retries, quotaRejected int64
}

type job struct {
	id          string
	tenant      string
	fingerprint string
	spec        json.RawMessage

	state     State
	attempts  int
	vf        float64
	notBefore time.Time

	submitted time.Time
	deadline  time.Time
	finished  time.Time

	cancel          context.CancelFunc
	cancelRequested bool

	class  string
	errMsg string
	code   int
	body   []byte
}

func (j *job) view() JobView {
	v := JobView{
		ID:          j.id,
		Tenant:      j.tenant,
		Fingerprint: j.fingerprint,
		State:       j.state,
		Attempts:    j.attempts,
		SubmittedMs: j.submitted.UnixMilli(),
		DeadlineMs:  j.deadline.UnixMilli(),
	}
	if j.state.Terminal() {
		v.FinishedMs = j.finished.UnixMilli()
		v.Code = j.code
	}
	if j.state == StatePoisoned || (!j.state.Terminal() && j.attempts > 0) {
		v.Class, v.Error = j.class, j.errMsg
	}
	return v
}

// Manager is the durable job queue: WAL-backed state, WFQ dispatch,
// bounded retries, poison quarantine, TTL expiry, and retention
// pruning. All state transitions happen under mu and are journaled
// before they become observable; only attempt execution runs outside
// the lock.
type Manager struct {
	cfg   Config
	now   func() time.Time
	sweep time.Duration

	runCtx    context.Context
	cancelRun context.CancelFunc
	stopCh    chan struct{}
	wg        sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	killed   bool
	draining bool
	wal      *wal
	tag      string
	seq      uint64
	vnow     float64
	jobs     map[string]*job
	order    []*job
	dedupe   map[string]string // tenant\x00fingerprint → job id
	tenants  map[string]*tenantState
	subs     map[int]chan struct{}
	subSeq   int

	walAppendErrors int64
}

// New opens (creating if needed) the WAL in cfg.Dir, replays it, and
// starts the worker pool. Jobs that were queued or running at the
// last shutdown or crash are re-enqueued and re-executed.
func New(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if cfg.Executor == nil {
		return nil, errors.New("jobs: Config.Executor is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Policy.MaxAttempts <= 0 {
		cfg.Policy.MaxAttempts = 3
	}
	if cfg.Policy.DefaultTTL <= 0 {
		cfg.Policy.DefaultTTL = 10 * time.Minute
	}
	if cfg.Policy.MaxTTL <= 0 {
		cfg.Policy.MaxTTL = time.Hour
	}
	if cfg.Policy.Retention <= 0 {
		cfg.Policy.Retention = 30 * time.Minute
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if cfg.CompactSegments <= 0 {
		cfg.CompactSegments = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 5 * time.Second
	}
	sweep := cfg.SweepInterval
	if sweep <= 0 {
		sweep = 200 * time.Millisecond
	}

	w, recs, err := openWAL(cfg.Dir, cfg.SegmentBytes)
	if err != nil {
		return nil, err
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		now:       time.Now,
		sweep:     sweep,
		runCtx:    runCtx,
		cancelRun: cancelRun,
		stopCh:    make(chan struct{}),
		wal:       w,
		tag:       instanceTag(),
		jobs:      make(map[string]*job),
		dedupe:    make(map[string]string),
		tenants:   make(map[string]*tenantState),
		subs:      make(map[int]chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if err := m.replay(recs); err != nil {
		w.kill()
		cancelRun()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.sweeper()
	return m, nil
}

func (m *Manager) tenantLocked(name string) *tenantState {
	if t, ok := m.tenants[name]; ok {
		return t
	}
	q := m.cfg.DefaultQuota
	if pinned, ok := m.cfg.Tenants[name]; ok {
		q = pinned
	}
	t := &tenantState{name: name, weight: q.Weight, maxQueued: q.MaxQueued, maxInFlight: q.MaxInFlight}
	if t.weight <= 0 {
		t.weight = 1
	}
	if t.maxQueued <= 0 {
		t.maxQueued = 1024
	}
	if t.maxInFlight <= 0 {
		t.maxInFlight = m.cfg.Workers
	}
	m.tenants[name] = t
	return t
}

func dedupeKey(tenant, fp string) string { return tenant + "\x00" + fp }

// replay rebuilds in-memory state from the journaled records: submits
// create jobs, fail records restore attempt counts, terminal records
// settle. Every surviving non-terminal job is re-enqueued in
// submission order.
func (m *Manager) replay(recs []record) error {
	for i := range recs {
		rec := &recs[i]
		switch rec.T {
		case recSubmit:
			if rec.ID == "" || m.jobs[rec.ID] != nil {
				continue
			}
			j := &job{
				id:          rec.ID,
				tenant:      rec.Tenant,
				fingerprint: rec.Fingerprint,
				spec:        rec.Spec,
				state:       StateQueued,
				submitted:   time.UnixMilli(rec.SubmittedMs),
				deadline:    time.UnixMilli(rec.DeadlineMs),
			}
			if j.tenant == "" {
				j.tenant = DefaultTenant
			}
			m.jobs[j.id] = j
			m.order = append(m.order, j)
			if seq, err := parseJobID(rec.ID); err == nil && seq >= m.seq {
				m.seq = seq + 1
			}
		case recFail:
			if j := m.jobs[rec.ID]; j != nil && !j.state.Terminal() {
				j.attempts = rec.Attempt
				j.class, j.errMsg = rec.Class, rec.Error
			}
		case recDone:
			if j := m.jobs[rec.ID]; j != nil {
				j.state = StateDone
				j.code, j.body = rec.Code, rec.Body
				j.finished = time.UnixMilli(rec.FinishedMs)
			}
		case recPoison:
			if j := m.jobs[rec.ID]; j != nil {
				j.state = StatePoisoned
				j.class, j.errMsg = rec.Class, rec.Error
				j.finished = time.UnixMilli(rec.FinishedMs)
			}
		case recExpire:
			if j := m.jobs[rec.ID]; j != nil {
				j.state = StateExpired
				j.finished = time.UnixMilli(rec.FinishedMs)
			}
		case recCancel:
			if j := m.jobs[rec.ID]; j != nil {
				j.state = StateCanceled
				j.finished = time.UnixMilli(rec.FinishedMs)
			}
		}
	}
	// Settle jobs the crash caught between a fail record and its
	// verdict, then re-enqueue the remainder in submission order.
	now := m.now()
	var lateRecs []record
	for _, j := range m.order {
		if j.state.Terminal() {
			m.countTerminal(j)
			continue
		}
		switch {
		case !j.deadline.IsZero() && now.After(j.deadline):
			j.state, j.finished = StateExpired, now
			lateRecs = append(lateRecs, record{T: recExpire, ID: j.id, FinishedMs: now.UnixMilli()})
			m.countTerminal(j)
		case j.attempts >= m.cfg.Policy.MaxAttempts:
			j.state, j.finished = StatePoisoned, now
			lateRecs = append(lateRecs, record{T: recPoison, ID: j.id, Class: j.class, Error: j.errMsg, FinishedMs: now.UnixMilli()})
			m.countTerminal(j)
		default:
			j.state = StateQueued
			m.enqueueLocked(j)
		}
	}
	for _, j := range m.order {
		switch j.state {
		case StateQueued, StateRunning, StateDone:
			m.dedupe[dedupeKey(j.tenant, j.fingerprint)] = j.id
		}
	}
	if len(lateRecs) > 0 {
		if err := m.wal.append(lateRecs...); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) countTerminal(j *job) {
	t := m.tenantLocked(j.tenant)
	switch j.state {
	case StateDone:
		t.done++
	case StatePoisoned:
		t.poisoned++
	case StateExpired:
		t.expired++
	case StateCanceled:
		t.canceled++
	}
}

// parseJobID extracts the sequence component — everything after the
// last dash — so replay can advance m.seq past every journaled ID,
// whichever boot (tag) minted it.
func parseJobID(id string) (uint64, error) {
	const prefix = "j-"
	if !strings.HasPrefix(id, prefix) {
		return 0, errors.New("bad job id")
	}
	seq := id[len(prefix):]
	if i := strings.LastIndexByte(seq, '-'); i >= 0 {
		seq = seq[i+1:]
	}
	return strconv.ParseUint(seq, 16, 64)
}

// instanceTag is a random per-boot component folded into every new job
// ID. Sequence numbers alone are only unique within one WAL, and a
// coordinator fronting several backends (or one backend whose WAL
// directory was wiped) must never see two live jobs share an ID.
func instanceTag() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fallback: uniqueness degrades to per-process, never fails open.
		return fmt.Sprintf("%08x", os.Getpid())
	}
	return fmt.Sprintf("%08x", b)
}

func (m *Manager) nextIDLocked() string {
	id := fmt.Sprintf("j-%s-%016x", m.tag, m.seq)
	m.seq++
	return id
}

// enqueueLocked stamps the job's WFQ virtual finish time and appends
// it to its tenant's queue.
func (m *Manager) enqueueLocked(j *job) {
	t := m.tenantLocked(j.tenant)
	vf := t.vfinish
	if m.vnow > vf {
		vf = m.vnow
	}
	vf += 1 / float64(t.weight)
	t.vfinish, j.vf = vf, vf
	t.queue = append(t.queue, j)
}

// requeueFrontLocked puts a retrying (or drain-interrupted) job back
// at the head of its tenant's queue with its original virtual finish
// time, so a retry does not lose its place to later submissions.
func (m *Manager) requeueFrontLocked(j *job) {
	t := m.tenantLocked(j.tenant)
	t.queue = append([]*job{j}, t.queue...)
}

func removeQueued(t *tenantState, j *job) bool {
	for i, q := range t.queue {
		if q == j {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			return true
		}
	}
	return false
}

// pickLocked is the WFQ dispatch decision: among tenants with a
// dispatchable head (queue non-empty, head past its retry backoff,
// tenant under its in-flight cap), pick the head with the smallest
// virtual finish time. Returns nil when nothing is dispatchable.
func (m *Manager) pickLocked(now time.Time) *job {
	var best *tenantState
	for _, t := range m.tenants {
		if len(t.queue) == 0 || t.inFlight >= t.maxInFlight {
			continue
		}
		h := t.queue[0]
		if h.notBefore.After(now) {
			continue
		}
		if best == nil || h.vf < best.queue[0].vf {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	j := best.queue[0]
	best.queue = best.queue[1:]
	if j.vf > m.vnow {
		m.vnow = j.vf
	}
	return j
}

func (m *Manager) backoff(attempt int) time.Duration {
	d := m.cfg.RetryBase
	for i := 1; i < attempt && d < m.cfg.RetryMaxDelay; i++ {
		d *= 2
	}
	if d > m.cfg.RetryMaxDelay {
		d = m.cfg.RetryMaxDelay
	}
	return d
}

// Submit accepts a batch for one tenant, all-or-nothing: either every
// job is journaled (one batched fsync) and acknowledged, or the batch
// is rejected whole — a *QuotaError past the tenant's queue quota,
// ErrDraining during drain. Submissions whose fingerprint matches a
// retained queued/running/done job (including an earlier entry of the
// same batch) dedupe to the existing job instead of creating one.
func (m *Manager) Submit(tenant string, subs []Submission) ([]Ack, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if len(subs) == 0 {
		return nil, errors.New("jobs: empty batch")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed || m.draining {
		return nil, ErrDraining
	}
	t := m.tenantLocked(tenant)

	now := m.now()
	acks := make([]Ack, len(subs))
	var newJobs []*job
	var recs []record
	batch := make(map[string]int) // dedupe key → ack index within this batch
	for i, sub := range subs {
		key := dedupeKey(tenant, sub.Fingerprint)
		if id, ok := m.dedupe[key]; ok {
			j := m.jobs[id]
			acks[i] = Ack{ID: j.id, Fingerprint: j.fingerprint, State: j.state, Deduped: true}
			t.deduped++
			continue
		}
		if prev, ok := batch[key]; ok {
			acks[i] = acks[prev]
			acks[i].Deduped = true
			t.deduped++
			continue
		}
		ttl := sub.TTL
		if ttl <= 0 {
			ttl = m.cfg.Policy.DefaultTTL
		}
		if ttl > m.cfg.Policy.MaxTTL {
			ttl = m.cfg.Policy.MaxTTL
		}
		j := &job{
			id:          m.nextIDLocked(),
			tenant:      tenant,
			fingerprint: sub.Fingerprint,
			spec:        sub.Spec,
			state:       StateQueued,
			submitted:   now,
			deadline:    now.Add(ttl),
		}
		newJobs = append(newJobs, j)
		recs = append(recs, record{
			T: recSubmit, ID: j.id, Tenant: tenant, Fingerprint: j.fingerprint,
			Spec: j.spec, SubmittedMs: j.submitted.UnixMilli(), DeadlineMs: j.deadline.UnixMilli(),
		})
		acks[i] = Ack{ID: j.id, Fingerprint: j.fingerprint, State: StateQueued}
		batch[key] = i
	}
	if len(t.queue)+len(newJobs) > t.maxQueued {
		t.quotaRejected++
		// Roll back the speculative ID counter so rejected batches do
		// not burn the sequence space.
		m.seq -= uint64(len(newJobs))
		return nil, &QuotaError{
			Tenant: tenant, Queued: len(t.queue), Limit: t.maxQueued,
			RetryAfter: m.quotaRetryAfterLocked(t),
		}
	}
	if len(recs) > 0 {
		// Durability before acknowledgment: the batch is fsync'd to
		// the WAL before any job exists in memory, so a crash after
		// this point cannot lose an acknowledged job, and a crash
		// before it cannot leak a half-accepted batch.
		if err := m.wal.append(recs...); err != nil {
			m.seq -= uint64(len(newJobs))
			return nil, err
		}
	}
	for _, j := range newJobs {
		m.jobs[j.id] = j
		m.order = append(m.order, j)
		m.dedupe[dedupeKey(j.tenant, j.fingerprint)] = j.id
		m.enqueueLocked(j)
		t.submitted++
	}
	m.compactLocked()
	if len(newJobs) > 0 {
		m.cond.Broadcast()
		m.notifyLocked()
	}
	return acks, nil
}

// quotaRetryAfterLocked estimates how long until the tenant's queue
// has drained enough to admit more work: roughly one second per
// worker-load unit, floored at 1s and capped at 30s.
func (m *Manager) quotaRetryAfterLocked(t *tenantState) time.Duration {
	d := time.Duration(1+len(t.queue)/m.cfg.Workers) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Get returns a job's view.
func (m *Manager) Get(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Result returns the stored result bytes and HTTP-shaped code for a
// done job, exactly as journaled — the byte-identical replay path.
func (m *Manager) Result(id string) (JobView, []byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, nil, false
	}
	return j.view(), j.body, true
}

// List returns views of every retained job, newest-submitted last;
// tenant filters when non-empty.
func (m *Manager) List(tenant string) []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	views := make([]JobView, 0, len(m.order))
	for _, j := range m.order {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		views = append(views, j.view())
	}
	sort.SliceStable(views, func(i, k int) bool {
		if views[i].SubmittedMs != views[k].SubmittedMs {
			return views[i].SubmittedMs < views[k].SubmittedMs
		}
		return views[i].ID < views[k].ID
	})
	return views
}

// Cancel moves a queued or running job to canceled (running attempts
// have their context canceled). Terminal jobs are returned unchanged.
func (m *Manager) Cancel(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	switch j.state {
	case StateQueued:
		removeQueued(m.tenantLocked(j.tenant), j)
		m.settleTerminalLocked(j, StateCanceled, record{T: recCancel, ID: j.id})
		m.compactLocked()
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		// The worker observes the canceled context and journals the
		// cancel record when the attempt unwinds.
	}
	return j.view(), true
}

// Subscribe returns a channel that receives a (coalesced) signal on
// every job state change, and a function to unsubscribe.
func (m *Manager) Subscribe() (<-chan struct{}, func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan struct{}, 1)
	id := m.subSeq
	m.subSeq++
	m.subs[id] = ch
	return ch, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(m.subs, id)
	}
}

func (m *Manager) notifyLocked() {
	for _, ch := range m.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// settleTerminalLocked journals a terminal record, applies it in
// memory, and wakes watchers. Append failures (disk full, torn
// device) are counted but do not block the in-memory verdict: the
// client still gets an answer, durability is degraded, and the
// counter makes the degradation visible.
func (m *Manager) settleTerminalLocked(j *job, s State, recs ...record) {
	now := m.now()
	for i := range recs {
		recs[i].FinishedMs = now.UnixMilli()
	}
	if err := m.wal.append(recs...); err != nil {
		m.walAppendErrors++
	}
	j.state, j.finished = s, now
	if s != StateDone {
		delete(m.dedupe, dedupeKey(j.tenant, j.fingerprint))
	}
	m.countTerminal(j)
	m.notifyLocked()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var j *job
		for {
			if m.killed || m.draining {
				m.mu.Unlock()
				return
			}
			if j = m.pickLocked(m.now()); j != nil {
				break
			}
			m.cond.Wait()
		}
		now := m.now()
		if !j.deadline.IsZero() && now.After(j.deadline) {
			m.settleTerminalLocked(j, StateExpired, record{T: recExpire, ID: j.id})
			m.compactLocked()
			m.mu.Unlock()
			continue
		}
		t := m.tenantLocked(j.tenant)
		t.inFlight++
		j.state = StateRunning
		ctx, cancel := context.WithDeadline(m.runCtx, j.deadline)
		j.cancel = cancel
		m.notifyLocked()
		m.mu.Unlock()

		out := m.cfg.Executor.Execute(ctx, j.spec, j.attempts)
		ctxErr := ctx.Err()
		cancel()

		m.mu.Lock()
		t.inFlight--
		j.cancel = nil
		m.settleAttemptLocked(j, t, ctxErr, out)
		m.compactLocked()
		m.cond.Broadcast() // an in-flight slot freed; retries may now be schedulable
		m.mu.Unlock()
	}
}

// settleAttemptLocked applies one finished attempt: terminal verdict,
// cancellation, drain requeue, expiry, or the retry/poison ladder.
func (m *Manager) settleAttemptLocked(j *job, t *tenantState, ctxErr error, out ExecOutcome) {
	now := m.now()
	switch {
	case m.killed:
		// Crash simulation: the verdict is deliberately dropped, as a
		// real crash would have dropped it. Replay re-executes.
	case j.cancelRequested:
		m.settleTerminalLocked(j, StateCanceled, record{T: recCancel, ID: j.id})
	case out.Code != 0:
		m.settleTerminalLocked(j, StateDone, record{T: recDone, ID: j.id, Code: out.Code, Body: out.Body})
		j.code, j.body = out.Code, out.Body
	case errors.Is(ctxErr, context.Canceled) && m.draining:
		// Graceful drain interrupted the attempt past its budget; the
		// job goes back to the queue and the closing checkpoint
		// persists it for the next boot.
		j.state = StateQueued
		m.requeueFrontLocked(j)
		m.notifyLocked()
	case !j.deadline.IsZero() && (errors.Is(ctxErr, context.DeadlineExceeded) || now.After(j.deadline)):
		m.settleTerminalLocked(j, StateExpired, record{T: recExpire, ID: j.id})
	default:
		j.attempts++
		j.class, j.errMsg = out.Class, out.Err
		fail := record{T: recFail, ID: j.id, Attempt: j.attempts, Class: out.Class, Error: out.Err}
		if !out.Retryable || j.attempts >= m.cfg.Policy.MaxAttempts {
			// The fail and poison records ride one append (one fsync,
			// one torn-tail unit), so replay can never see the final
			// failure without its quarantine verdict.
			m.settleTerminalLocked(j, StatePoisoned,
				fail, record{T: recPoison, ID: j.id, Class: out.Class, Error: out.Err})
			return
		}
		if err := m.wal.append(fail); err != nil {
			m.walAppendErrors++
		}
		t.retries++
		delay := m.backoff(j.attempts)
		j.state = StateQueued
		j.notBefore = now.Add(delay)
		m.requeueFrontLocked(j)
		m.notifyLocked()
		time.AfterFunc(delay+time.Millisecond, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
	}
}

// sweeper periodically expires queued jobs past their deadline,
// prunes terminal jobs past retention, and compacts the WAL once
// enough segments accumulate.
func (m *Manager) sweeper() {
	defer m.wg.Done()
	tick := time.NewTicker(m.sweep)
	defer tick.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-tick.C:
		}
		m.mu.Lock()
		if m.killed || m.draining {
			m.mu.Unlock()
			return
		}
		now := m.now()
		for _, t := range m.tenants {
			for _, j := range append([]*job(nil), t.queue...) {
				if !j.deadline.IsZero() && now.After(j.deadline) {
					removeQueued(t, j)
					m.settleTerminalLocked(j, StateExpired, record{T: recExpire, ID: j.id})
				}
			}
		}
		m.pruneLocked(now)
		m.compactLocked()
		// Fallback wakeup in case a retry timer fired while no worker
		// was waiting.
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// pruneLocked drops terminal jobs whose retention window has passed.
// Pruning is an in-memory act: the next checkpoint simply omits them,
// and an unluckily-timed crash just replays a terminal job that the
// first sweep prunes again.
func (m *Manager) pruneLocked(now time.Time) {
	cutoff := now.Add(-m.cfg.Policy.Retention)
	kept := m.order[:0]
	for _, j := range m.order {
		if j.state.Terminal() && j.finished.Before(cutoff) {
			delete(m.jobs, j.id)
			if m.dedupe[dedupeKey(j.tenant, j.fingerprint)] == j.id {
				delete(m.dedupe, dedupeKey(j.tenant, j.fingerprint))
			}
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// compactLocked checkpoints the WAL once more than CompactSegments
// segments have accumulated. Every operation that journals records
// calls it only after applying them in memory, so the checkpoint
// already covers the segments it deletes, and the segment count is
// bounded after every operation rather than once per sweep.
func (m *Manager) compactLocked() {
	if m.killed || m.draining || m.wal.liveSegments() <= int64(m.cfg.CompactSegments) {
		return
	}
	if err := m.checkpointLocked(false); err != nil {
		m.walAppendErrors++
	}
}

// checkpointLocked snapshots every retained job into the WAL
// checkpoint. Running jobs snapshot as queued (their submit + fail
// history), so a crash right after a compaction re-executes them.
func (m *Manager) checkpointLocked(closing bool) error {
	recs := make([]record, 0, 2*len(m.order))
	for _, j := range m.order {
		recs = append(recs, record{
			T: recSubmit, ID: j.id, Tenant: j.tenant, Fingerprint: j.fingerprint,
			Spec: j.spec, SubmittedMs: j.submitted.UnixMilli(), DeadlineMs: j.deadline.UnixMilli(),
		})
		if j.attempts > 0 && !j.state.Terminal() {
			recs = append(recs, record{T: recFail, ID: j.id, Attempt: j.attempts, Class: j.class, Error: j.errMsg})
		}
		switch j.state {
		case StateDone:
			recs = append(recs, record{T: recDone, ID: j.id, Code: j.code, Body: j.body, FinishedMs: j.finished.UnixMilli()})
		case StatePoisoned:
			recs = append(recs, record{T: recPoison, ID: j.id, Class: j.class, Error: j.errMsg, FinishedMs: j.finished.UnixMilli()})
		case StateExpired:
			recs = append(recs, record{T: recExpire, ID: j.id, FinishedMs: j.finished.UnixMilli()})
		case StateCanceled:
			recs = append(recs, record{T: recCancel, ID: j.id, FinishedMs: j.finished.UnixMilli()})
		}
	}
	return m.wal.writeCheckpoint(recs, closing)
}

// Drain stops dispatching, waits for in-flight attempts to finish (or
// cancels them when ctx expires — they requeue), then writes the
// closing checkpoint so every queued job survives to the next boot.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return nil
	}
	if !m.draining {
		m.draining = true
		close(m.stopCh)
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.cancelRun()
		<-done
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return nil
	}
	err := m.checkpointLocked(true)
	m.killed = true // no further appends
	m.cancelRun()
	return err
}

// Kill simulates a crash for chaos harnesses: running attempts are
// canceled, their verdicts dropped, and the WAL is abandoned without
// a checkpoint — on-disk state is exactly what kill -9 would leave.
func (m *Manager) Kill() {
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return
	}
	m.killed = true
	if !m.draining {
		m.draining = true
		close(m.stopCh)
	}
	m.wal.kill()
	m.cancelRun()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// TenantStats is one tenant's /statsz row.
type TenantStats struct {
	Weight          int   `json:"weight"`
	Queued          int   `json:"queued"`
	InFlight        int   `json:"in_flight"`
	Submitted       int64 `json:"submitted"`
	Deduped         int64 `json:"deduped"`
	Done            int64 `json:"done"`
	Poisoned        int64 `json:"poisoned"`
	Expired         int64 `json:"expired"`
	Canceled        int64 `json:"canceled"`
	Retries         int64 `json:"retries"`
	QuotaRejections int64 `json:"quota_rejections"`
}

// Stats is the job subsystem's /statsz block.
type Stats struct {
	Queued          int                    `json:"queued"`
	InFlight        int                    `json:"in_flight"`
	Retained        int                    `json:"retained"`
	Submitted       int64                  `json:"submitted"`
	Deduped         int64                  `json:"deduped"`
	Done            int64                  `json:"done"`
	Poisoned        int64                  `json:"poisoned"`
	Expired         int64                  `json:"expired"`
	Canceled        int64                  `json:"canceled"`
	Retries         int64                  `json:"retries"`
	QuotaRejections int64                  `json:"quota_rejections"`
	WALAppendErrors int64                  `json:"wal_append_errors,omitempty"`
	Tenants         map[string]TenantStats `json:"tenants,omitempty"`
	WAL             WALStats               `json:"wal"`
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Retained: len(m.order), Tenants: make(map[string]TenantStats, len(m.tenants)), WAL: m.wal.stats(), WALAppendErrors: m.walAppendErrors}
	for name, t := range m.tenants {
		ts := TenantStats{
			Weight: t.weight, Queued: len(t.queue), InFlight: t.inFlight,
			Submitted: t.submitted, Deduped: t.deduped,
			Done: t.done, Poisoned: t.poisoned, Expired: t.expired, Canceled: t.canceled,
			Retries: t.retries, QuotaRejections: t.quotaRejected,
		}
		s.Tenants[name] = ts
		s.Queued += ts.Queued
		s.InFlight += ts.InFlight
		s.Submitted += ts.Submitted
		s.Deduped += ts.Deduped
		s.Done += ts.Done
		s.Poisoned += ts.Poisoned
		s.Expired += ts.Expired
		s.Canceled += ts.Canceled
		s.Retries += ts.Retries
		s.QuotaRejections += ts.QuotaRejections
	}
	return s
}
