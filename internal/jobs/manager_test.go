package jobs

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/ipcp"
)

// stubExec is a scriptable Executor: per-fingerprint behavior keyed
// by the spec's "p" field.
type stubExec struct {
	mu      sync.Mutex
	calls   map[string]int
	failN   map[string]int  // fail this many attempts before succeeding
	poison  map[string]bool // fail every attempt, retryable
	hard    map[string]bool // fail first attempt, non-retryable
	block   chan struct{}   // if non-nil, attempts park here until closed
	started atomic.Int64
}

type stubSpec struct {
	P string `json:"p"`
}

func newStubExec() *stubExec {
	return &stubExec{
		calls:  make(map[string]int),
		failN:  make(map[string]int),
		poison: make(map[string]bool),
		hard:   make(map[string]bool),
	}
}

func (e *stubExec) Execute(ctx context.Context, spec json.RawMessage, attempt int) ExecOutcome {
	var s stubSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return ExecOutcome{Class: "decode", Err: err.Error(), Retryable: false}
	}
	e.mu.Lock()
	e.calls[s.P]++
	block := e.block
	poison := e.poison[s.P]
	hard := e.hard[s.P]
	failN := e.failN[s.P]
	e.mu.Unlock()
	e.started.Add(1)
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return ExecOutcome{Class: "exhausted:deadline", Err: ctx.Err().Error(), Retryable: true}
		}
	}
	if ctx.Err() != nil {
		return ExecOutcome{Class: "exhausted:deadline", Err: ctx.Err().Error(), Retryable: true}
	}
	switch {
	case poison:
		return ExecOutcome{Class: "panic:solve", Err: "injected poison", Retryable: true}
	case hard:
		return ExecOutcome{Class: "internal", Err: "injected hard failure", Retryable: false}
	case attempt < failN:
		return ExecOutcome{Class: "panic:solve", Err: "injected transient", Retryable: true}
	}
	body := fmt.Sprintf("{\n  \"result\": %q,\n  \"attempt\": %d\n}\n", s.P, attempt)
	return ExecOutcome{Code: 200, Body: []byte(body)}
}

func (e *stubExec) callCount(p string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls[p]
}

func sub(p string, ttl time.Duration) Submission {
	return Submission{
		Spec:        json.RawMessage(fmt.Sprintf(`{"p":%q}`, p)),
		Fingerprint: "fp-" + p,
		TTL:         ttl,
	}
}

func newTestManager(t *testing.T, dir string, exec Executor, mut func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		Dir:           dir,
		Executor:      exec,
		Workers:       2,
		RetryBase:     5 * time.Millisecond,
		RetryMaxDelay: 20 * time.Millisecond,
		SweepInterval: 20 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func waitTerminal(t *testing.T, m *Manager, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := m.Get(id)
	t.Fatalf("job %s never reached a terminal state (stuck at %s)", id, v.State)
	return JobView{}
}

func TestSubmitExecuteDone(t *testing.T) {
	exec := newStubExec()
	m := newTestManager(t, t.TempDir(), exec, nil)
	defer m.Kill()

	acks, err := m.Submit("", []Submission{sub("a", 0), sub("b", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(acks) != 2 || acks[0].ID == acks[1].ID {
		t.Fatalf("bad acks: %+v", acks)
	}
	for _, a := range acks {
		if a.Deduped || a.State != StateQueued {
			t.Fatalf("fresh ack should be queued, not deduped: %+v", a)
		}
	}
	v := waitTerminal(t, m, acks[0].ID)
	if v.State != StateDone || v.Code != 200 {
		t.Fatalf("want done/200, got %+v", v)
	}
	if v.Tenant != DefaultTenant {
		t.Fatalf("empty tenant should map to %q, got %q", DefaultTenant, v.Tenant)
	}
	_, body, ok := m.Result(acks[0].ID)
	if !ok || string(body) == "" {
		t.Fatalf("missing result body")
	}
	want := "{\n  \"result\": \"a\",\n  \"attempt\": 0\n}\n"
	if string(body) != want {
		t.Fatalf("result bytes: got %q want %q", body, want)
	}
}

func TestDedupeByFingerprint(t *testing.T) {
	exec := newStubExec()
	m := newTestManager(t, t.TempDir(), exec, nil)
	defer m.Kill()

	// Duplicate within one batch.
	acks, err := m.Submit("t1", []Submission{sub("a", 0), sub("a", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if acks[1].ID != acks[0].ID || !acks[1].Deduped {
		t.Fatalf("in-batch duplicate should dedupe: %+v", acks)
	}
	waitTerminal(t, m, acks[0].ID)

	// Duplicate across batches, post-completion: returns the done job.
	acks2, err := m.Submit("t1", []Submission{sub("a", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if acks2[0].ID != acks[0].ID || !acks2[0].Deduped || acks2[0].State != StateDone {
		t.Fatalf("cross-batch duplicate should dedupe to done job: %+v", acks2)
	}
	// Different tenant, same fingerprint: independent job.
	acks3, err := m.Submit("t2", []Submission{sub("a", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if acks3[0].ID == acks[0].ID || acks3[0].Deduped {
		t.Fatalf("tenants must not share dedupe space: %+v", acks3)
	}
	waitTerminal(t, m, acks3[0].ID)
	if got := exec.callCount("a"); got != 2 {
		t.Fatalf("program a should execute twice (once per tenant), got %d", got)
	}
}

func TestRetryThenSucceed(t *testing.T) {
	exec := newStubExec()
	exec.failN["flaky"] = 2
	m := newTestManager(t, t.TempDir(), exec, nil)
	defer m.Kill()

	acks, err := m.Submit("", []Submission{sub("flaky", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := waitTerminal(t, m, acks[0].ID)
	if v.State != StateDone {
		t.Fatalf("want done after retries, got %+v", v)
	}
	if v.Attempts != 2 {
		t.Fatalf("want 2 recorded failures, got %d", v.Attempts)
	}
	if got := exec.callCount("flaky"); got != 3 {
		t.Fatalf("want 3 attempts, got %d", got)
	}
	st := m.Stats()
	if st.Retries != 2 {
		t.Fatalf("stats retries: want 2, got %d", st.Retries)
	}
}

func TestPoisonQuarantine(t *testing.T) {
	exec := newStubExec()
	exec.poison["bad"] = true
	m := newTestManager(t, t.TempDir(), exec, func(c *Config) {
		c.Policy = ipcp.JobPolicy{MaxAttempts: 3}
	})
	defer m.Kill()

	acks, err := m.Submit("", []Submission{sub("bad", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := waitTerminal(t, m, acks[0].ID)
	if v.State != StatePoisoned {
		t.Fatalf("want poisoned, got %+v", v)
	}
	if v.Class != "panic:solve" || v.Error == "" {
		t.Fatalf("poison must carry the attributed error: %+v", v)
	}
	if got := exec.callCount("bad"); got != 3 {
		t.Fatalf("MaxAttempts=3 should mean exactly 3 attempts, got %d", got)
	}
	if st := m.Stats(); st.Poisoned != 1 {
		t.Fatalf("stats poisoned: want 1, got %d", st.Poisoned)
	}
	// A poisoned job does not dedupe: resubmission creates a new job.
	acks2, err := m.Submit("", []Submission{sub("bad", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if acks2[0].ID == acks[0].ID || acks2[0].Deduped {
		t.Fatalf("poisoned job must not satisfy dedupe: %+v", acks2)
	}
	waitTerminal(t, m, acks2[0].ID)
}

func TestNonRetryablePoisonsImmediately(t *testing.T) {
	exec := newStubExec()
	exec.hard["hard"] = true
	m := newTestManager(t, t.TempDir(), exec, nil)
	defer m.Kill()

	acks, err := m.Submit("", []Submission{sub("hard", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := waitTerminal(t, m, acks[0].ID)
	if v.State != StatePoisoned || v.Attempts != 1 {
		t.Fatalf("non-retryable failure should poison on attempt 1: %+v", v)
	}
	if got := exec.callCount("hard"); got != 1 {
		t.Fatalf("want 1 attempt, got %d", got)
	}
}

func TestQueueQuota(t *testing.T) {
	exec := newStubExec()
	exec.block = make(chan struct{})
	m := newTestManager(t, t.TempDir(), exec, func(c *Config) {
		c.Workers = 1
		c.DefaultQuota = ipcp.TenantQuota{MaxQueued: 2}
	})
	defer close(exec.block)
	defer m.Kill()

	// One job occupies the worker; two more fill the queue.
	if _, err := m.Submit("t", []Submission{sub("r", 0)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCond(t, func() bool { return exec.started.Load() == 1 })
	if _, err := m.Submit("t", []Submission{sub("q1", 0), sub("q2", 0)}); err != nil {
		t.Fatalf("Submit within quota: %v", err)
	}
	_, err := m.Submit("t", []Submission{sub("q3", 0)})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("want QuotaError, got %v", err)
	}
	if qe.RetryAfter < time.Second {
		t.Fatalf("QuotaError.RetryAfter must be >= 1s, got %v", qe.RetryAfter)
	}
	if st := m.Stats(); st.QuotaRejections != 1 {
		t.Fatalf("stats quota_rejections: want 1, got %d", st.QuotaRejections)
	}
	// The rejection is all-or-nothing: q3 must not exist.
	for _, v := range m.List("t") {
		if v.Fingerprint == "fp-q3" {
			t.Fatalf("rejected batch leaked a job: %+v", v)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	exec := newStubExec()
	exec.block = make(chan struct{})
	m := newTestManager(t, t.TempDir(), exec, func(c *Config) {
		c.Workers = 1
	})
	defer close(exec.block)
	defer m.Kill()

	// Occupy the only worker so the short-TTL job expires while queued.
	if _, err := m.Submit("t", []Submission{sub("blocker", 0)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCond(t, func() bool { return exec.started.Load() == 1 })
	acks, err := m.Submit("t", []Submission{sub("short", 30*time.Millisecond)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := waitTerminal(t, m, acks[0].ID)
	if v.State != StateExpired {
		t.Fatalf("want expired, got %+v", v)
	}
	if exec.callCount("short") != 0 {
		t.Fatalf("expired-in-queue job must not execute")
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	exec := newStubExec()
	exec.block = make(chan struct{})
	m := newTestManager(t, t.TempDir(), exec, func(c *Config) {
		c.Workers = 1
	})
	defer m.Kill()

	acks, err := m.Submit("t", []Submission{sub("run", 0), sub("wait", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCond(t, func() bool { return exec.started.Load() == 1 })

	// Cancel the queued job: immediate.
	v, ok := m.Cancel(acks[1].ID)
	if !ok || v.State != StateCanceled {
		t.Fatalf("cancel queued: %+v ok=%v", v, ok)
	}
	// Cancel the running job: its context unwinds the attempt.
	if _, ok := m.Cancel(acks[0].ID); !ok {
		t.Fatalf("cancel running: not found")
	}
	v = waitTerminal(t, m, acks[0].ID)
	if v.State != StateCanceled {
		t.Fatalf("want canceled, got %+v", v)
	}
	close(exec.block)
	// Canceling a terminal job is a no-op.
	v2, ok := m.Cancel(acks[0].ID)
	if !ok || v2.State != StateCanceled {
		t.Fatalf("cancel terminal: %+v", v2)
	}
}

func TestKillReplayExactlyOnceObservable(t *testing.T) {
	dir := t.TempDir()
	exec := newStubExec()
	exec.block = make(chan struct{})
	m := newTestManager(t, dir, exec, func(c *Config) {
		c.Workers = 2
	})

	var ids []string
	for i := 0; i < 8; i++ {
		acks, err := m.Submit("t", []Submission{sub(fmt.Sprintf("p%d", i), 0)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, acks[0].ID)
	}
	waitCond(t, func() bool { return exec.started.Load() >= 2 })
	// Crash mid-batch: two attempts in flight, six queued, nothing done.
	m.Kill()
	close(exec.block)

	exec2 := newStubExec()
	m2 := newTestManager(t, dir, exec2, func(c *Config) { c.Workers = 2 })
	defer m2.Kill()
	for i, id := range ids {
		v := waitTerminal(t, m2, id)
		if v.State != StateDone {
			t.Fatalf("replayed job %s: want done, got %+v", id, v)
		}
		_, body, _ := m2.Result(id)
		want := fmt.Sprintf("{\n  \"result\": \"p%d\",\n  \"attempt\": 0\n}\n", i)
		if string(body) != want {
			t.Fatalf("job %s result mismatch after replay: got %q want %q", id, body, want)
		}
	}
	// Resubmitting after replay dedupes to the recovered jobs.
	acks, err := m2.Submit("t", []Submission{sub("p0", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if acks[0].ID != ids[0] || !acks[0].Deduped {
		t.Fatalf("replayed job must satisfy dedupe: %+v", acks)
	}
	if st := m2.Stats(); st.WAL.ReplayedRecords == 0 {
		t.Fatalf("expected replayed records in stats")
	}
}

func TestKillPreservesDoneResults(t *testing.T) {
	dir := t.TempDir()
	exec := newStubExec()
	m := newTestManager(t, dir, exec, nil)
	acks, err := m.Submit("t", []Submission{sub("a", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, m, acks[0].ID)
	_, body1, _ := m.Result(acks[0].ID)
	m.Kill()

	exec2 := newStubExec()
	m2 := newTestManager(t, dir, exec2, nil)
	defer m2.Kill()
	v, body2, ok := m2.Result(acks[0].ID)
	if !ok || v.State != StateDone {
		t.Fatalf("done job lost across crash: %+v ok=%v", v, ok)
	}
	if string(body1) != string(body2) {
		t.Fatalf("result bytes changed across crash:\n  before %q\n  after  %q", body1, body2)
	}
	if exec2.callCount("a") != 0 {
		t.Fatalf("done job must not re-execute after replay")
	}
}

func TestAttemptCountSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	exec := newStubExec()
	exec.poison["bad"] = true
	exec.block = make(chan struct{})
	m := newTestManager(t, dir, exec, func(c *Config) {
		c.Workers = 1
		c.Policy = ipcp.JobPolicy{MaxAttempts: 3}
		c.RetryBase = time.Hour // park after first failure
		c.RetryMaxDelay = time.Hour
	})
	acks, err := m.Submit("t", []Submission{sub("bad", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	close(exec.block)
	// Wait until the first failure is journaled (job back in queue with
	// attempts=1, parked on the hour-long backoff).
	waitCond(t, func() bool {
		v, _ := m.Get(acks[0].ID)
		return v.Attempts == 1 && v.State == StateQueued
	})
	m.Kill()

	exec2 := newStubExec()
	exec2.poison["bad"] = true
	m2 := newTestManager(t, dir, exec2, func(c *Config) {
		c.Policy = ipcp.JobPolicy{MaxAttempts: 3}
	})
	defer m2.Kill()
	v := waitTerminal(t, m2, acks[0].ID)
	if v.State != StatePoisoned {
		t.Fatalf("want poisoned, got %+v", v)
	}
	if got := exec2.callCount("bad"); got != 2 {
		t.Fatalf("attempt count must survive crash: want 2 post-crash attempts, got %d", got)
	}
}

func TestDrainCheckpointsQueue(t *testing.T) {
	dir := t.TempDir()
	exec := newStubExec()
	exec.block = make(chan struct{})
	m := newTestManager(t, dir, exec, func(c *Config) { c.Workers = 1 })

	acks, err := m.Submit("t", []Submission{sub("running", 0), sub("parked", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCond(t, func() bool { return exec.started.Load() == 1 })
	// Let the running attempt finish during drain.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(exec.block)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Submissions after drain are rejected.
	if _, err := m.Submit("t", []Submission{sub("late", 0)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: want ErrDraining, got %v", err)
	}
	// The checkpoint subsumed all segments: only checkpoint.json and
	// the (possibly empty) post-checkpoint artifacts remain.
	if _, err := os.Stat(filepath.Join(dir, walCheckpointName)); err != nil {
		t.Fatalf("missing checkpoint after drain: %v", err)
	}

	exec2 := newStubExec()
	m2 := newTestManager(t, dir, exec2, nil)
	defer m2.Kill()
	vRun, _, _ := m2.Result(acks[0].ID)
	if vRun.State != StateDone {
		t.Fatalf("finished-during-drain job should replay done, got %+v", vRun)
	}
	vParked := waitTerminal(t, m2, acks[1].ID)
	if vParked.State != StateDone {
		t.Fatalf("parked job should execute after reopen, got %+v", vParked)
	}
	if exec2.callCount("running") != 0 || exec2.callCount("parked") != 1 {
		t.Fatalf("re-execution set wrong: running=%d parked=%d",
			exec2.callCount("running"), exec2.callCount("parked"))
	}
}

func TestDrainTimeoutRequeuesInFlight(t *testing.T) {
	dir := t.TempDir()
	exec := newStubExec()
	exec.block = make(chan struct{})
	defer close(exec.block)
	m := newTestManager(t, dir, exec, func(c *Config) { c.Workers = 1 })

	acks, err := m.Submit("t", []Submission{sub("stuck", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCond(t, func() bool { return exec.started.Load() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	exec2 := newStubExec()
	m2 := newTestManager(t, dir, exec2, nil)
	defer m2.Kill()
	v := waitTerminal(t, m2, acks[0].ID)
	if v.State != StateDone {
		t.Fatalf("drain-interrupted job should re-execute to done, got %+v", v)
	}
}

func TestWeightedFairness(t *testing.T) {
	exec := newStubExec()
	exec.block = make(chan struct{})
	var mu sync.Mutex
	var dispatched []string
	wrapped := execFunc(func(ctx context.Context, spec json.RawMessage, attempt int) ExecOutcome {
		var s stubSpec
		_ = json.Unmarshal(spec, &s)
		mu.Lock()
		dispatched = append(dispatched, s.P[:1]) // tenant prefix
		mu.Unlock()
		return exec.Execute(ctx, spec, attempt)
	})
	m := newTestManager(t, t.TempDir(), wrapped, func(c *Config) {
		c.Workers = 1
		c.Tenants = map[string]ipcp.TenantQuota{
			"heavy": {Weight: 3},
			"light": {Weight: 1},
		}
	})
	defer m.Kill()

	// Park the worker on a throwaway job while both backlogs build, so
	// dispatch order reflects WFQ, not arrival order.
	if _, err := m.Submit("warm", []Submission{sub("w0", 0)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCond(t, func() bool { return exec.started.Load() == 1 })
	for i := 0; i < 9; i++ {
		if _, err := m.Submit("heavy", []Submission{sub(fmt.Sprintf("h%d", i), 0)}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Submit("light", []Submission{sub(fmt.Sprintf("l%d", i), 0)}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	close(exec.block)
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(dispatched) == 13
	})
	// Weight-3 heavy should get ~3 dispatches per 1 of weight-1 light
	// (ideal WFQ order: h h h l h h h l ...). Strict FIFO would run
	// all 9 heavy jobs (submitted first) before any light; assert the
	// first 8 post-warm-up dispatches interleave instead.
	mu.Lock()
	order := append([]string(nil), dispatched...)
	mu.Unlock()
	var h, l int
	for _, p := range order[1:9] {
		switch p {
		case "h":
			h++
		case "l":
			l++
		}
	}
	if l < 2 {
		t.Fatalf("light tenant starved by heavy backlog: order=%v", order)
	}
	if h < 5 {
		t.Fatalf("heavy tenant not getting its 3x share: order=%v", order)
	}
}

type execFunc func(ctx context.Context, spec json.RawMessage, attempt int) ExecOutcome

func (f execFunc) Execute(ctx context.Context, spec json.RawMessage, attempt int) ExecOutcome {
	return f(ctx, spec, attempt)
}

func TestInFlightCap(t *testing.T) {
	exec := newStubExec()
	exec.block = make(chan struct{})
	m := newTestManager(t, t.TempDir(), exec, func(c *Config) {
		c.Workers = 4
		c.Tenants = map[string]ipcp.TenantQuota{"capped": {MaxInFlight: 1}}
	})
	defer m.Kill()

	if _, err := m.Submit("capped", []Submission{sub("c0", 0), sub("c1", 0), sub("c2", 0)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Only one may run despite 4 workers.
	time.Sleep(50 * time.Millisecond)
	if got := exec.started.Load(); got != 1 {
		t.Fatalf("MaxInFlight=1: want 1 started, got %d", got)
	}
	// Other tenants are not blocked by capped's limit.
	if _, err := m.Submit("free", []Submission{sub("f0", 0)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCond(t, func() bool { return exec.started.Load() == 2 })
	close(exec.block)
	for _, v := range m.List("") {
		waitTerminal(t, m, v.ID)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	exec := newStubExec()
	m := newTestManager(t, dir, exec, nil)
	acks, err := m.Submit("t", []Submission{sub("a", 0), sub("b", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for _, a := range acks {
		waitTerminal(t, m, a.ID)
	}
	m.Kill()

	// Append garbage (a torn frame) to the newest segment.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], 9999) // length pointing past EOF
	binary.LittleEndian.PutUint32(hdr[4:], 42)
	f.Write(hdr[:])
	f.Write([]byte("torn"))
	f.Close()

	exec2 := newStubExec()
	m2 := newTestManager(t, dir, exec2, nil)
	defer m2.Kill()
	for _, a := range acks {
		v, _, ok := m2.Result(a.ID)
		if !ok || v.State != StateDone {
			t.Fatalf("job %s lost to torn tail: %+v", a.ID, v)
		}
	}
	if st := m2.Stats(); st.WAL.CorruptRecords == 0 {
		t.Fatalf("torn tail should be counted as corrupt")
	}
}

func TestWALChecksumCatchesBitrot(t *testing.T) {
	payload := []byte(`{"t":"submit","id":"j-0000000000000000"}`)
	var frame []byte
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, walCRC))
	frame = append(frame, hdr[:]...)
	frame = append(frame, payload...)
	dir := t.TempDir()
	path := segmentPath(dir, 1)
	// Flip one payload bit.
	frame[len(frame)-3] ^= 0x01
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, corrupt, err := readSegment(path)
	if err != nil {
		t.Fatalf("readSegment: %v", err)
	}
	if len(recs) != 0 || corrupt != 1 {
		t.Fatalf("bitrot not caught: recs=%d corrupt=%d", len(recs), corrupt)
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	exec := newStubExec()
	m := newTestManager(t, dir, exec, func(c *Config) {
		c.SegmentBytes = 256 // force rapid rotation
		c.CompactSegments = 2
	})
	defer m.Kill()
	var ids []string
	for i := 0; i < 20; i++ {
		acks, err := m.Submit("t", []Submission{sub(fmt.Sprintf("c%d", i), 0)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, acks[0].ID)
	}
	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	waitCond(t, func() bool { return m.Stats().WAL.Checkpoints > 0 })
	// All jobs still present after compaction.
	for _, id := range ids {
		if v, _, ok := m.Result(id); !ok || v.State != StateDone {
			t.Fatalf("job %s lost to compaction: %+v", id, v)
		}
	}
	// Segment files on disk should be bounded.
	segs, _ := listSegments(dir)
	if len(segs) > 4 {
		t.Fatalf("compaction not bounding segments: %d on disk", len(segs))
	}
}

// TestCompactionSurvivesCrash compacts after nearly every journaled
// operation — submits, retries and verdicts alike — then crashes: every
// job must come back done with its result bytes, and none may run
// again, so each checkpoint covered the segments it replaced.
func TestCompactionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	exec := newStubExec()
	m := newTestManager(t, dir, exec, func(c *Config) {
		c.SegmentBytes = 128
		c.CompactSegments = 1
	})
	var ids []string
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("k%d", i)
		if i%3 == 0 {
			exec.mu.Lock()
			exec.failN[p] = 1 // one retry journals a fail record
			exec.mu.Unlock()
		}
		acks, err := m.Submit("t", []Submission{sub(p, 0)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, acks[0].ID)
	}
	bodies := make(map[string]string)
	for _, id := range ids {
		if v := waitTerminal(t, m, id); v.State != StateDone {
			t.Fatalf("job %s: want done, got %+v", id, v)
		}
		_, body, _ := m.Result(id)
		bodies[id] = string(body)
	}
	if m.Stats().WAL.Checkpoints == 0 {
		t.Fatal("no compaction ran")
	}
	m.Kill()

	exec2 := newStubExec()
	m2 := newTestManager(t, dir, exec2, nil)
	defer m2.Kill()
	for i, id := range ids {
		v, body, ok := m2.Result(id)
		if !ok || v.State != StateDone {
			t.Fatalf("job %s lost across compaction and crash: %+v ok=%v", id, v, ok)
		}
		if string(body) != bodies[id] {
			t.Fatalf("job %s result changed across crash:\n  before %q\n  after  %q", id, bodies[id], body)
		}
		if n := exec2.callCount(fmt.Sprintf("k%d", i)); n != 0 {
			t.Fatalf("done job %s re-executed %d times after replay", id, n)
		}
	}
}

// testClock is a manual clock for Manager.now.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRetentionPruning(t *testing.T) {
	exec := newStubExec()
	m := newTestManager(t, t.TempDir(), exec, func(c *Config) {
		c.Policy = ipcp.JobPolicy{Retention: 30 * time.Millisecond}
	})
	defer m.Kill()
	// The retention window runs on a manual clock: a job cannot be
	// pruned before waitTerminal has seen it finish, however long the
	// gaps between its polls.
	clock := &testClock{t: time.Now()}
	m.mu.Lock()
	m.now = clock.Now
	m.mu.Unlock()
	acks, err := m.Submit("t", []Submission{sub("a", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, m, acks[0].ID)
	clock.Advance(time.Minute)
	waitCond(t, func() bool {
		_, ok := m.Get(acks[0].ID)
		return !ok
	})
	// After pruning, the same fingerprint executes fresh.
	acks2, err := m.Submit("t", []Submission{sub("a", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if acks2[0].Deduped {
		t.Fatalf("pruned job must not satisfy dedupe")
	}
	waitTerminal(t, m, acks2[0].ID)
}

func TestSubscribeNotifies(t *testing.T) {
	exec := newStubExec()
	m := newTestManager(t, t.TempDir(), exec, nil)
	defer m.Kill()
	ch, stop := m.Subscribe()
	defer stop()
	acks, err := m.Submit("t", []Submission{sub("a", 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-ch:
			if v, _ := m.Get(acks[0].ID); v.State.Terminal() {
				return
			}
		case <-deadline:
			t.Fatalf("no terminal notification")
		}
	}
}

func TestCorruptCheckpointRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walCheckpointName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Dir: dir, Executor: newStubExec()})
	if err == nil {
		t.Fatalf("corrupt checkpoint must refuse to open")
	}
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition never became true")
}
