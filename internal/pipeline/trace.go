// Package pipeline holds the per-phase trace of one analysis. The
// drivers — the public ipcp entry points, the core interprocedural
// driver and the cloning loop — run their phases in a fixed order and
// report each execution into a Trace: wall time and run count, units of
// work, memo hits and degradation events. Result.PhaseStats, ipcp
// -trace and the service's /statsz phase latencies all read it.
package pipeline

import (
	"sync"
	"time"
)

// PhaseStat is one phase's aggregated observations over a pipeline run:
// wall time, executions, units of work, memo hits, and degradation
// events. Phases that loop (complete-propagation rounds) accumulate.
type PhaseStat struct {
	// Phase is the phase name.
	Phase string `json:"phase"`
	// Wall is the total wall-clock time spent inside the phase. Phases
	// run sequentially, so summing Wall over a run's phases never
	// exceeds the run's total wall time.
	Wall time.Duration `json:"wall_ns"`
	// Runs counts executions (rounds, retries).
	Runs int64 `json:"runs"`
	// Units counts the phase's units of work: program units parsed,
	// procedures checked or built, jump-function evaluations solved,
	// files looked up.
	Units int64 `json:"units"`
	// MemoHits counts results the phase reused from an incremental-
	// analysis cache instead of recomputing.
	MemoHits int64 `json:"memo_hits"`
	// Degradations counts budget-driven fallback events attributed to
	// the phase.
	Degradations int64 `json:"degradations"`
}

// Trace collects per-phase observability for one pipeline run. All
// methods are safe for concurrent use and are no-ops on a nil receiver,
// so drivers thread a trace unconditionally and callers that do not
// observe pay (almost) nothing.
type Trace struct {
	mu    sync.Mutex
	order []string
	stats map[string]*PhaseStat
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{stats: make(map[string]*PhaseStat)}
}

// stat returns the named phase's accumulator, creating it in first-
// observation order. Caller holds t.mu.
func (t *Trace) stat(phase string) *PhaseStat {
	s := t.stats[phase]
	if s == nil {
		s = &PhaseStat{Phase: phase}
		t.stats[phase] = s
		t.order = append(t.order, phase)
	}
	return s
}

// Start begins timing one execution of the phase and returns the
// function that ends it, recording the wall time and one run.
func (t *Trace) Start(phase string) (stop func()) {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		d := time.Since(begin)
		t.mu.Lock()
		s := t.stat(phase)
		s.Wall += d
		s.Runs++
		t.mu.Unlock()
	}
}

// AddUnits credits n units of work to the phase.
func (t *Trace) AddUnits(phase string, n int) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	t.stat(phase).Units += int64(n)
	t.mu.Unlock()
}

// MemoHit records one memoized reuse in the phase.
func (t *Trace) MemoHit(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stat(phase).MemoHits++
	t.mu.Unlock()
}

// Degradation records one budget-driven fallback attributed to the
// phase (the pipeline site that exhausted its budget).
func (t *Trace) Degradation(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stat(phase).Degradations++
	t.mu.Unlock()
}

// Snapshot returns the per-phase statistics in first-observation order.
// It is a copy: the trace may keep accumulating.
func (t *Trace) Snapshot() []PhaseStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PhaseStat, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, *t.stats[name])
	}
	return out
}
