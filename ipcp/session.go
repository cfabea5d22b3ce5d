package ipcp

import (
	"context"
	"errors"
	"sync"

	"repro/internal/session"
	"repro/internal/source"
)

// Session is the public handle on a compiler-daemon session: a resident,
// already-analyzed program that accepts per-unit delta edits and
// re-analyzes incrementally (package session). All methods are safe for
// concurrent use; edits and result reads are serialized per session.
type Session struct {
	mu   sync.Mutex
	s    *session.Session
	name string
	cfg  Config
}

// UnitEdit is one delta against a session's unit list, in wire form.
// Op is "replace", "add", or "delete"; Index addresses the current unit
// list; Text is the unit source (ignored for delete).
type UnitEdit struct {
	Op    string `json:"op"`
	Index int    `json:"index"`
	Text  string `json:"text,omitempty"`
}

// EditInfo reports what one Edit call did.
type EditInfo struct {
	// FastPath is true when the edited program was derived from the
	// resident one instead of re-analyzed from its text.
	FastPath bool `json:"fast_path"`
	// UnitsInvalidated is the blast-radius size (fast path) or the whole
	// unit count (rebuild).
	UnitsInvalidated int `json:"units_invalidated"`
	// ContextsReused counts value-context replays during the re-analysis.
	ContextsReused int `json:"contexts_reused"`
	// JumpReused and SubstReused count per-procedure artifacts reused in
	// place.
	JumpReused  int `json:"jump_reused"`
	SubstReused int `json:"subst_reused"`
	// DeltaBytes is the raw size of the call's edit payloads.
	DeltaBytes int `json:"delta_bytes"`
	// Units is the unit count after the call.
	Units int `json:"units"`
}

// SessionStats are a session's cumulative counters.
type SessionStats struct {
	Edits            int64  `json:"edits"`
	FastEdits        int64  `json:"fast_edits"`
	FullRebuilds     int64  `json:"full_rebuilds"`
	UnitsInvalidated int64  `json:"units_invalidated"`
	JumpReused       int64  `json:"jump_reused"`
	SubstReused      int64  `json:"subst_reused"`
	ContextHits      uint64 `json:"context_hits"`
	ContextMisses    uint64 `json:"context_misses"`
	DeltaBytes       int64  `json:"delta_bytes"`
}

// ErrBadEdit tags edit-validation failures (unknown op, out-of-range
// index, empty edit list): the session is unchanged and the request —
// not the program — is at fault.
var ErrBadEdit = errors.New("ipcp: invalid session edit")

// sessionError classifies an internal session error the way the
// one-shot pipeline does: front-end diagnostics pass through raw,
// everything else (budget, deadline, internal faults) is wrapped by
// budgetError.
func sessionError(err error) error {
	if err == nil {
		return nil
	}
	var el *source.ErrorList
	if errors.As(err, &el) {
		return err
	}
	var ee *session.EditError
	if errors.As(err, &ee) {
		return errors.Join(ErrBadEdit, err)
	}
	return budgetError(err)
}

// OpenSession analyzes src and keeps the program resident for delta
// edits. Inputs a cold Analyze would reject fail the open with the same
// diagnostics.
func OpenSession(ctx context.Context, filename, src string, cfg Config) (s *Session, err error) {
	defer recoverInternal(&err)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inner, err := session.Open(ctx, filename, src, cfg.internal())
	if err != nil {
		return nil, sessionError(err)
	}
	return &Session{s: inner, name: filename, cfg: cfg}, nil
}

// Edit applies a sequence of deltas and re-analyzes. Validation covers
// the whole sequence up front; an invalid edit returns an error wrapping
// ErrBadEdit with the session untouched. An edit that breaks the
// program (front-end errors, budget exhaustion under FailFast) returns
// the failure and leaves the session in that error state — exactly the
// state a cold analysis of the edited text would report — until a later
// edit repairs it.
func (s *Session) Edit(ctx context.Context, edits []UnitEdit) (info EditInfo, err error) {
	defer recoverInternal(&err)
	in := make([]session.Edit, len(edits))
	for i, e := range edits {
		in[i] = session.Edit{Op: session.Op(e.Op), Index: e.Index, Text: e.Text}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, aerr := s.s.Apply(ctx, in)
	info = EditInfo{
		FastPath:         res.FastPath,
		UnitsInvalidated: res.UnitsInvalidated,
		ContextsReused:   res.ContextsReused,
		JumpReused:       res.JumpReused,
		SubstReused:      res.SubstReused,
		DeltaBytes:       res.DeltaBytes,
		Units:            s.s.NumUnits(),
	}
	return info, sessionError(aerr)
}

// Result assembles the session's current analysis result. The Result
// shares the session's live program and is valid until the next Edit;
// callers that hold it across edits must extract what they need first.
func (s *Session) Result() (r *Result, err error) {
	defer recoverInternal(&err)
	s.mu.Lock()
	defer s.mu.Unlock()
	a, f, sub, front, serr := s.s.Snapshot()
	if serr != nil {
		return nil, sessionError(serr)
	}
	return newResult(a, f, sub, front), nil
}

// Source returns the session's current program text (the concatenation
// of its unit texts — the text cold-analysis equivalence is stated
// against).
func (s *Session) Source() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Source()
}

// NumUnits returns the current unit count.
func (s *Session) NumUnits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.NumUnits()
}

// Stats returns the session's cumulative counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.s.Stats()
	return SessionStats{
		Edits:            st.Edits,
		FastEdits:        st.FastEdits,
		FullRebuilds:     st.FullRebuilds,
		UnitsInvalidated: st.UnitsInvalidated,
		JumpReused:       st.JumpReused,
		SubstReused:      st.SubstReused,
		ContextHits:      st.ContextHits,
		ContextMisses:    st.ContextMisses,
		DeltaBytes:       st.DeltaBytes,
	}
}

// MemoryBytes estimates the session's retained size, for byte-budgeted
// eviction.
func (s *Session) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.MemoryBytes()
}

// Fingerprint returns the content fingerprint of the session's current
// text under its configuration — the key the coordinator uses for
// session affinity.
func (s *Session) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Fingerprint(s.name, s.s.Source(), s.cfg)
}
