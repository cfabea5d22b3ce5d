// Package session implements stateful compiler-daemon sessions: delta
// edits over a resident, already-analyzed program.
//
// A session holds one program as a list of per-unit source texts plus
// every artifact of its last analysis — the parsed AST, the semantic
// Program, per-procedure CFGs, jump functions, substitution decisions,
// and the value-context store — all keyed by live pointers, not content
// hashes. A replace-unit delta re-analyzes exactly one unit in place
// (sem.ReplaceUnit), invalidates only along the edited procedure's
// transitive caller chain (the "blast radius"), and reuses every other
// procedure's artifacts directly. This is what drives warm-one-edit
// latency toward warm-identical: the content-addressed cache (package
// memo) must re-split, re-hash, and re-link artifacts into each
// analysis, while a session skips all of that because identity is
// preserved by construction.
//
// Soundness of the blast radius: a procedure's jump functions are built
// from its own body plus its transitive callees' return summaries and
// MOD sets, so the artifacts an edit of E can invalidate belong exactly
// to E and E's transitive callers. A procedure outside that set cannot
// call into it (if p calls q and q is E or a transitive caller of E,
// then p is a transitive caller of E too), so its callee closure — and
// with it its jump functions, substitution decisions, and recorded
// value contexts — is untouched. MOD/REF summaries are recomputed every
// edit from the previous ones: each unedited procedure keeps its direct
// effects, and every closed set is rebuilt from them.
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
//     formals, result type, COMMON layout — verified by
//     sem.ReplaceUnit, because callers are not re-checked);
//   - the replacement preserves the unit's line count (or edits the
//     last unit), so every retained AST position matches what a cold
//     parse of the full text would produce.
package session

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/jump"
	"repro/internal/memo"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/subst"
	"repro/internal/symbolic"
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

// substArt is one procedure's retained substitution decision, valid
// while the procedure is outside every subsequent blast radius and its
// constant entry environment fingerprints identically.
type substArt struct {
	count    int
	repl     map[ast.Expr]string
	entryKey string
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

	file  *ast.File
	prog  *sem.Program
	graph *callgraph.Graph
	mod   *modref.Info

	jf      map[*sem.Procedure]*jump.ProcMemo
	subArts map[*sem.Procedure]*substArt
	ctxs    *memo.ContextStore

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
		name:    name,
		cfg:     cfg,
		ctxs:    memo.NewContextStore(),
		jf:      make(map[*sem.Procedure]*jump.ProcMemo),
		subArts: make(map[*sem.Procedure]*substArt),
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
	return s.analysis, s.file, s.subRes, s.front, nil
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

// tryFastReplace attempts the in-place path for one replace delta.
// It mutates the session (program, artifacts, unit text) only on
// success; on failure the caller records the text and rebuilds.
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
	// Parse the replacement alone, padded to its absolute position so
	// its AST is byte-for-byte what a cold parse of the full text would
	// hold.
	var pdiags source.ErrorList
	f := parser.ParseFile(source.NewFile(s.name, strings.Repeat("\n", startLine-1)+text), &pdiags)
	if len(pdiags.Diags) > 0 || len(f.Units) != 1 {
		return false
	}
	oldProc := s.prog.Order[idx]
	// Blast radius on the pre-edit graph: the caller set is the same
	// before and after an interface-preserving replace.
	blast := s.blastOf(oldProc)
	var sdiags source.ErrorList
	if _, ok := s.prog.ReplaceUnit(idx, f.Units[0], &sdiags); !ok || len(sdiags.Diags) > 0 {
		// A warned-but-swapped replacement is also rejected here; the
		// rebuild that follows re-parses from the updated unit text, so
		// the swap cannot leak.
		return false
	}
	s.units[idx] = text
	for p := range blast {
		delete(s.jf, p)
		delete(s.subArts, p)
		s.ctxs.Invalidate(p)
	}
	// Re-derive the graph layers, reusing every unedited procedure's
	// CFG and direct side effects (both depend only on its own body;
	// what an edit changes in callers is their closed MOD/REF sets,
	// rebuilt here, and their jump functions, invalidated above).
	reuse := make(map[*sem.Procedure]*cfg.Graph, len(s.graph.Order))
	for _, n := range s.graph.Order {
		if n.Proc != oldProc {
			reuse[n.Proc] = n.CFG
		}
	}
	s.graph = callgraph.BuildReuse(s.prog, reuse)
	s.mod = modref.ComputeReuse(s.graph, s.mod)
	info.UnitsInvalidated += len(blast)
	s.stats.UnitsInvalidated += int64(len(blast))
	return true
}

// blastOf returns p plus its transitive callers.
func (s *Session) blastOf(p *sem.Procedure) map[*sem.Procedure]bool {
	blast := map[*sem.Procedure]bool{p: true}
	stack := []*sem.Procedure{p}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := s.graph.Nodes[q.Name]
		if n == nil {
			continue
		}
		for _, site := range n.In {
			if !blast[site.Caller] {
				blast[site.Caller] = true
				stack = append(stack, site.Caller)
			}
		}
	}
	return blast
}

// rebuild re-analyzes the whole program from the concatenated unit
// texts, exactly as a cold analysis would, then recaptures artifacts.
func (s *Session) rebuild(ctx context.Context) error {
	s.wipeArtifacts()
	s.stats.FullRebuilds++
	s.file, s.prog, s.graph, s.mod = nil, nil, nil, nil
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
	s.file, s.prog = f, prog
	s.graph = callgraph.Build(prog)
	s.mod = modref.Compute(s.graph)
	s.aligned = len(f.Units) == len(s.units) && len(prog.Order) == len(f.Units)
	var front []string
	for _, d := range diags.Diags {
		front = append(front, d.String())
	}
	return s.analyze(ctx, front, nil, nil)
}

// analyze runs the interprocedural driver over the resident program
// with the session's reuse hooks, computes the substitution eagerly,
// and adopts the freshly captured artifacts.
func (s *Session) analyze(ctx context.Context, front []string, reusedJF, reusedSub *int) error {
	cfg := s.cfg
	h := &hooks{
		graph:    s.graph,
		mod:      s.mod,
		complete: cfg.Complete,
		jfFresh:  make(map[*sem.Procedure]*jump.ProcMemo),
		subFresh: make(map[*sem.Procedure]*substArt),
	}
	if !cfg.Complete {
		h.jfReady = make(map[*sem.Procedure]*jump.ProcMemo, len(s.jf))
		for p, m := range s.jf {
			h.jfReady[p] = m
		}
		h.subReady = make(map[*sem.Procedure]*substArt, len(s.subArts))
		for p, art := range s.subArts {
			h.subReady[p] = art
		}
		cfg.Contexts = s.ctxs
	}
	cfg.Hooks = h

	a, err := core.AnalyzeProgramErr(ctx, s.prog, cfg)
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
	nJF := len(s.prog.Order) - len(h.jfFresh)
	nSub := h.subHits
	if reusedJF != nil {
		*reusedJF = nJF
	}
	if reusedSub != nil {
		*reusedSub = nSub
	}
	s.stats.JumpReused += int64(nJF)
	s.stats.SubstReused += int64(nSub)
	for p, m := range h.jfFresh {
		s.jf[p] = m
	}
	for p, art := range h.subFresh {
		s.subArts[p] = art
	}
	s.clean = true
	return nil
}

func (s *Session) wipeArtifacts() {
	s.jf = make(map[*sem.Procedure]*jump.ProcMemo)
	s.subArts = make(map[*sem.Procedure]*substArt)
	s.ctxs.Reset()
}

// ---------------------------------------------------------------------
// MemoHooks over live pointers

// hooks adapts the session's pointer-keyed artifact maps to the core
// driver's MemoHooks. The ready maps are frozen before the analysis
// starts (jump.Build and subst.Run read them concurrently, lock-free);
// fresh artifacts are collected under the mutex and adopted by the
// session after the analysis completes.
type hooks struct {
	graph    *callgraph.Graph
	mod      *modref.Info
	complete bool

	jfReady  map[*sem.Procedure]*jump.ProcMemo
	subReady map[*sem.Procedure]*substArt

	mu       sync.Mutex
	jfFresh  map[*sem.Procedure]*jump.ProcMemo
	subFresh map[*sem.Procedure]*substArt
	subHits  int
}

func (h *hooks) Graph() (*callgraph.Graph, *modref.Info) { return h.graph, h.mod }

func (h *hooks) Funcs(core.Config, jump.Config, *symbolic.Builder) (*jump.Functions, int, jump.Memo) {
	// Never a whole-build hit: whole-build identity is the trivial
	// no-edit case, which Apply short-circuits before analyzing. The
	// per-procedure memo both serves the ready set and captures fresh
	// builds.
	return nil, 0, jfMemo{h}
}

func (h *hooks) StoreFuncs(core.Config, *jump.Functions, int) {}

func (h *hooks) Subst(_ core.Config, opts subst.Options) (*subst.Result, subst.Memo) {
	if h.complete || opts.Entry == nil {
		return nil, nil
	}
	// A retained decision is valid only if the procedure's constant
	// entry environment still fingerprints identically — the entry
	// environment is the substitution pass's only solver input.
	ready := make(map[*sem.Procedure]*substArt, len(h.subReady))
	for p, art := range h.subReady {
		if art.entryKey == memo.EntryFP(p, opts.Entry(p)) {
			ready[p] = art
		}
	}
	h.mu.Lock()
	h.subHits = len(ready)
	h.mu.Unlock()
	return nil, &subMemo{h: h, ready: ready, entry: opts.Entry}
}

func (h *hooks) StoreSubst(core.Config, subst.Options, *subst.Result) {}

type jfMemo struct{ h *hooks }

func (m jfMemo) Lookup(p *sem.Procedure) *jump.ProcMemo { return m.h.jfReady[p] }

func (m jfMemo) Store(p *sem.Procedure, pm *jump.ProcMemo) {
	m.h.mu.Lock()
	m.h.jfFresh[p] = pm
	m.h.mu.Unlock()
}

type subMemo struct {
	h     *hooks
	ready map[*sem.Procedure]*substArt
	entry func(p *sem.Procedure) map[ssa.Var]int64
}

func (m *subMemo) Lookup(p *sem.Procedure) (int, map[ast.Expr]string, bool) {
	if art, ok := m.ready[p]; ok {
		return art.count, art.repl, true
	}
	return 0, nil, false
}

func (m *subMemo) Store(p *sem.Procedure, count int, repl map[ast.Expr]string) {
	art := &substArt{count: count, repl: repl, entryKey: memo.EntryFP(p, m.entry(p))}
	m.h.mu.Lock()
	m.h.subFresh[p] = art
	m.h.mu.Unlock()
}
