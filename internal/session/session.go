// Package session implements stateful compiler-daemon sessions: delta
// edits over a resident, already-analyzed program.
//
// A session holds one program as a list of per-unit source texts plus
// every artifact of its last analysis — the parsed AST, the semantic
// Program, per-procedure CFGs, the artifact store of jump functions and
// substitution decisions, and the value-context store — all keyed by
// live pointers, not content hashes. A replace-unit delta goes through
// the replace step of package memo, the same one the analysis cache
// derives edited programs with: it re-analyzes exactly one unit
// (sem.Program.Derive), invalidates only along the edited procedure's
// transitive caller chain (the "blast radius"), and keeps every other
// procedure's artifacts by pointer. What a session saves over the cache
// is the lookup itself: no re-splitting, no hashing, no donor search.
//
// Soundness of the blast radius is argued at memo.Replace: nothing
// outside it can see the edit, so its jump functions, substitution
// decisions and recorded value contexts stay valid. MOD/REF summaries
// are recomputed every edit from the previous ones: each unedited
// procedure keeps its direct effects, and every closed set is rebuilt
// from them.
//
// Cross-builder discipline: reused jump-function expressions were
// interned by an earlier analysis's builders. That is safe under the
// repo's standing invariant that expressions cross builders only
// through symbolic.Builder.Substitute (which re-interns) or through
// symbolic.Eval (which is purely structural); the session never feeds a
// foreign expression to an interning constructor directly.
//
// Fast-path gates (everything else falls back to a full rebuild, which
// can cost time but never correctness):
//   - the previous analysis was clean: no diagnostics, no degradations,
//     and not complete-propagation mode;
//   - the delta is a replace whose unit parses alone to exactly one
//     clean unit;
//   - the replacement preserves the unit's interface (name, kind,
//     formals, result type) and its effects on the COMMON layout —
//     verified by sem.Program.Derive, because callers are not
//     re-checked;
//   - the replacement preserves the unit's line count (or edits the
//     last unit), so every retained AST position matches what a cold
//     parse of the full text would produce.
package session

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/subst"
)

// Op is a delta operation kind.
type Op string

// The delta operations: replace the unit at Index with Text, insert
// Text as a new unit at Index, or delete the unit at Index. Only
// replace can take the fast path; add and delete restructure the unit
// list and always rebuild.
const (
	OpReplace Op = "replace"
	OpAdd     Op = "add"
	OpDelete  Op = "delete"
)

// Edit is one delta against the session's unit list.
type Edit struct {
	Op    Op
	Index int
	Text  string
}

// EditError reports an invalid delta — unknown op, out-of-range index,
// or an empty edit list. The session is unchanged; callers map this to
// a client error rather than an analysis failure.
type EditError struct{ msg string }

func (e *EditError) Error() string { return e.msg }

func editErrorf(format string, args ...interface{}) *EditError {
	return &EditError{msg: fmt.Sprintf(format, args...)}
}

// Stats are the session's cumulative counters.
type Stats struct {
	// Edits counts delta operations applied.
	Edits int64
	// FastEdits counts Apply calls served entirely by the fast path.
	FastEdits int64
	// FullRebuilds counts full re-analyses (including the opening one).
	FullRebuilds int64
	// UnitsInvalidated accumulates blast-radius sizes across fast edits.
	UnitsInvalidated int64
	// JumpReused / SubstReused accumulate per-procedure artifacts reused
	// in place across analyses.
	JumpReused  int64
	SubstReused int64
	// ContextHits / ContextMisses are the value-context store's counters.
	ContextHits   uint64
	ContextMisses uint64
	// DeltaBytes accumulates the raw size of all edit payloads.
	DeltaBytes int64
}

// EditInfo reports what one Apply call did.
type EditInfo struct {
	// FastPath is true when every edit in the call avoided a rebuild.
	FastPath bool
	// UnitsInvalidated is the total blast-radius size (fast path) or the
	// whole program size (rebuild).
	UnitsInvalidated int
	// ContextsReused counts value-context replays during the re-analysis.
	ContextsReused int
	// JumpReused / SubstReused count per-procedure artifacts reused.
	JumpReused  int
	SubstReused int
	// DeltaBytes is the raw size of the call's edit payloads.
	DeltaBytes int
}

// Session is one resident program. It is not safe for concurrent use;
// the public wrapper (package ipcp) serializes access.
type Session struct {
	name string
	cfg  core.Config

	// units holds the per-unit source texts; their concatenation is the
	// program text (cold-analysis equivalence is always stated against
	// that concatenation).
	units []string

	fe   memo.Front
	arts *memo.Store
	ctxs *memo.ContextStore

	analysis *core.Analysis
	subRes   *subst.Result
	front    []string
	resErr   error

	// clean gates the fast path: the last analysis completed with no
	// diagnostics, no degradations, and artifacts were captured.
	clean bool
	// aligned records that units, file.Units, and prog.Order correspond
	// index-for-index.
	aligned bool

	stats Stats
}

// Open creates a session over a program and runs its first analysis.
// An input with front-end errors fails the open (mirroring a cold
// analysis of the same text).
func Open(ctx context.Context, name, src string, cfg core.Config) (*Session, error) {
	// The session owns its hook wiring; a caller-supplied cache or trace
	// would break the identity-reuse discipline.
	cfg.Hooks = nil
	cfg.Trace = nil
	cfg.Contexts = nil
	s := &Session{
		name: name,
		cfg:  cfg,
		arts: memo.NewStore(),
		ctxs: memo.NewContextStore(),
	}
	s.setUnits(src)
	if err := s.rebuild(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// setUnits renormalizes the unit list to the canonical unit split of
// src (so indices always line up with parsed units); an unsplittable
// text becomes a single unit.
func (s *Session) setUnits(src string) {
	s.units = s.units[:0]
	if chunks, ok := memo.Split(s.name, src); ok {
		for _, c := range chunks {
			s.units = append(s.units, c.Text)
		}
		return
	}
	s.units = append(s.units, src)
}

// Source returns the program text: the concatenation of the unit texts.
func (s *Session) Source() string {
	var b strings.Builder
	for _, u := range s.units {
		b.WriteString(u)
	}
	return b.String()
}

// NumUnits returns the current unit count.
func (s *Session) NumUnits() int { return len(s.units) }

// Stats returns the cumulative counters.
func (s *Session) Stats() Stats { return s.stats }

// MemoryBytes estimates the session's retained size for byte-budgeted
// eviction: the resident front end and analysis scale with the source,
// plus the value-context store's own accounting.
func (s *Session) MemoryBytes() int64 {
	var src int64
	for _, u := range s.units {
		src += int64(len(u))
	}
	return src*24 + 32768 + s.ctxs.Bytes()
}

// Snapshot returns the last analysis outcome: either the artifacts a
// Result is assembled from, or the error the analysis ended with.
func (s *Session) Snapshot() (*core.Analysis, *ast.File, *subst.Result, []string, error) {
	if s.resErr != nil {
		return nil, nil, nil, nil, s.resErr
	}
	return s.analysis, s.fe.Prog.File, s.subRes, s.front, nil
}

// Apply applies a sequence of deltas and re-analyzes. Index validation
// covers the whole sequence before anything is applied, so an invalid
// edit leaves the session untouched. Analysis errors (front-end errors
// introduced by the edit, fail-fast budget exhaustion) are returned and
// also retained as the session's result state; the session stays open
// and later edits can repair it.
func (s *Session) Apply(ctx context.Context, edits []Edit) (EditInfo, error) {
	var info EditInfo
	if len(edits) == 0 {
		return info, editErrorf("session: empty edit list")
	}
	n := len(s.units)
	for _, e := range edits {
		switch e.Op {
		case OpReplace:
			if e.Index < 0 || e.Index >= n {
				return info, editErrorf("session: replace index %d out of range (%d units)", e.Index, n)
			}
		case OpAdd:
			if e.Index < 0 || e.Index > n {
				return info, editErrorf("session: add index %d out of range (%d units)", e.Index, n)
			}
			n++
		case OpDelete:
			if e.Index < 0 || e.Index >= n {
				return info, editErrorf("session: delete index %d out of range (%d units)", e.Index, n)
			}
			n--
		default:
			return info, editErrorf("session: unknown edit op %q", e.Op)
		}
	}

	for _, e := range edits {
		info.DeltaBytes += len(e.Text)
	}
	s.stats.Edits += int64(len(edits))
	s.stats.DeltaBytes += int64(info.DeltaBytes)

	needRebuild := false
	for _, e := range edits {
		switch e.Op {
		case OpReplace:
			if !needRebuild && s.tryFastReplace(e, &info) {
				continue
			}
			s.units[e.Index] = e.Text
			needRebuild = true
		case OpAdd:
			s.units = append(s.units, "")
			copy(s.units[e.Index+1:], s.units[e.Index:])
			s.units[e.Index] = e.Text
			needRebuild = true
		case OpDelete:
			s.units = append(s.units[:e.Index], s.units[e.Index+1:]...)
			needRebuild = true
		}
	}

	hitsBefore := s.ctxs.Hits()
	var err error
	if needRebuild {
		info.UnitsInvalidated = len(s.units)
		err = s.rebuild(ctx)
	} else {
		info.FastPath = true
		s.stats.FastEdits++
		var reusedJF, reusedSub int
		err = s.analyze(ctx, nil, &reusedJF, &reusedSub)
		info.JumpReused, info.SubstReused = reusedJF, reusedSub
	}
	info.ContextsReused = int(s.ctxs.Hits() - hitsBefore)
	return info, err
}

// tryFastReplace attempts the replace step for one replace delta. It
// changes the session (program, artifacts, unit text) only on success;
// on failure the caller records the text and rebuilds.
func (s *Session) tryFastReplace(e Edit, info *EditInfo) bool {
	if !s.clean || !s.aligned || s.resErr != nil || s.analysis == nil ||
		len(s.front) > 0 || s.cfg.Complete {
		return false
	}
	idx, text := e.Index, e.Text
	old := s.units[idx]
	if text == old {
		return true // no-op delta: nothing to invalidate or re-analyze
	}
	// Position preservation: every retained AST keeps its parse
	// positions, so units after the edited one must not shift. Editing
	// the last unit shifts nothing; otherwise the replacement must hold
	// the line count (and stay newline-terminated so the next unit's
	// header still starts a line in the concatenated text).
	if idx != len(s.units)-1 &&
		(strings.Count(text, "\n") != strings.Count(old, "\n") || !strings.HasSuffix(text, "\n")) {
		return false
	}
	startLine := 1
	for i := 0; i < idx; i++ {
		startLine += strings.Count(s.units[i], "\n")
	}
	units := make([]memo.Unit, len(s.units))
	for i := range units {
		units[i].Keep = i
	}
	units[idx] = memo.Unit{File: s.name, Line: startLine, Text: text}
	fe, blast, ok := memo.Replace(s.fe, units)
	if !ok {
		return false
	}
	s.units[idx] = text
	s.fe = fe
	s.arts.Drop(blast)
	for _, p := range blast {
		s.ctxs.Invalidate(p)
	}
	info.UnitsInvalidated += len(blast)
	s.stats.UnitsInvalidated += int64(len(blast))
	return true
}

// rebuild re-analyzes the whole program from the concatenated unit
// texts, exactly as a cold analysis would, then recaptures artifacts.
func (s *Session) rebuild(ctx context.Context) error {
	s.wipeArtifacts()
	s.stats.FullRebuilds++
	s.fe = memo.Front{}
	s.analysis, s.subRes, s.front, s.resErr = nil, nil, nil, nil
	s.clean, s.aligned = false, false

	src := s.Source()
	s.setUnits(src)
	var diags source.ErrorList
	f := parser.ParseFile(source.NewFile(s.name, src), &diags)
	semCtx := ctx
	if !s.cfg.FailFast {
		semCtx = nil
	}
	prog, err := sem.AnalyzeParallelCtx(semCtx, f, &diags, s.cfg.Parallelism)
	if err != nil {
		s.resErr = err
		return err
	}
	if derr := diags.Err(); derr != nil {
		s.resErr = derr
		return derr
	}
	g := callgraph.Build(prog)
	s.fe = memo.Front{Prog: prog, Graph: g, Mod: modref.Compute(g)}
	s.aligned = len(f.Units) == len(s.units) && len(prog.Order) == len(f.Units)
	var front []string
	for _, d := range diags.Diags {
		front = append(front, d.String())
	}
	return s.analyze(ctx, front, nil, nil)
}

// analyze runs the interprocedural driver over the resident program
// with the artifact store's hooks, computes the substitution eagerly,
// and keeps the artifacts the analysis stored only if it was clean.
func (s *Session) analyze(ctx context.Context, front []string, reusedJF, reusedSub *int) error {
	cfg := s.cfg
	h := s.arts.Hooks(s.fe)
	cfg.Hooks = h
	if !cfg.Complete {
		cfg.Contexts = s.ctxs
	}

	a, err := core.AnalyzeProgramErr(ctx, s.fe.Prog, cfg)
	if err != nil {
		s.wipeArtifacts()
		s.resErr = err
		return err
	}
	sub := a.Substitute()
	s.analysis, s.subRes, s.front, s.resErr = a, sub, front, nil
	s.stats.ContextHits = s.ctxs.Hits()
	s.stats.ContextMisses = s.ctxs.Misses()

	if cfg.Complete || a.Degraded() || len(front) > 0 {
		// Complete propagation's artifacts are round-dependent; degraded
		// analyses may mix configurations from the fallback chain; a
		// program with front-end warnings never takes the fast path. In
		// every case retained artifacts would be dead weight (or worse).
		s.wipeArtifacts()
		s.clean = false
		return nil
	}
	nJF := len(s.fe.Prog.Order) - h.Built()
	nSub := h.Reused()
	if reusedJF != nil {
		*reusedJF = nJF
	}
	if reusedSub != nil {
		*reusedSub = nSub
	}
	s.stats.JumpReused += int64(nJF)
	s.stats.SubstReused += int64(nSub)
	s.clean = true
	return nil
}

func (s *Session) wipeArtifacts() {
	s.arts = memo.NewStore()
	s.ctxs.Reset()
}
