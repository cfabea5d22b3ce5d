// Package session implements stateful compiler-daemon sessions: delta
// edits over a resident, already-analyzed program.
//
// A session holds one program as a list of unit chunks (each unit's
// text and start line) plus every artifact of its last analysis — the
// semantic Program with its AST, the call graph and MOD/REF summaries,
// the artifact store of jump functions and substitution decisions, and
// the value-context store — all keyed by live pointers, not content
// hashes. Apply applies a delta list (replace, add, delete) to a copy
// of the chunk list and derives the edited program from the resident
// one by the rule the analysis cache derives an edited text from a
// cached one: memo.Plan keeps every unit whose text and start line are
// unchanged, and memo.Replace parses every other unit alone at its
// line, derives the program (sem.Program.Derive), and invalidates only
// the new and removed procedures and their transitive callers (the
// "blast radius"). Every other procedure keeps its artifacts by
// pointer. What a session saves over the cache is the lookup itself:
// no re-splitting, no hashing, no donor search.
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
// through symbolic.Builder.Substitute (which re-interns) or through a
// domain's Eval, which walks the expression and interns nothing; the
// session never feeds a foreign expression to an interning constructor
// directly.
//
// An edit the replace step cannot take rebuilds the whole program from
// its text, exactly as a cold analysis would: when the resident program
// has a front-end diagnostic or does not align with the chunk list,
// when a chunk other than the last does not end a line, when no unit
// is kept, or when memo.Replace rejects the edit (a unit that does not
// parse alone to exactly one clean unit, an interface or COMMON-layout
// change, a kept unit calling a removed one). A rebuild costs time,
// never correctness.
package session

import (
	"context"
	"fmt"
	"slices"
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
// Text as a new unit at Index, or delete the unit at Index.
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
	// FastEdits counts Apply calls that derived the edited program.
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
	// FastPath is true when the call derived the edited program from
	// the resident one instead of rebuilding it.
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

	// units is the program text's unit split: the chunk texts
	// concatenate to the text (cold-analysis equivalence is always
	// stated against that concatenation), and each chunk's StartLine is
	// one plus the newlines before it. A rebuild sets the canonical
	// split (memo.Split); Apply edits the list instead of re-splitting.
	units []memo.Chunk

	fe   memo.Front
	arts *memo.Store
	ctxs *memo.ContextStore

	analysis *core.Analysis
	subRes   *subst.Result
	front    []string
	resErr   error

	// donor records that fe may be a replace donor: its front end had
	// no diagnostic and its units correspond to units index for index.
	donor bool

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
		name:  name,
		cfg:   cfg,
		units: []memo.Chunk{{File: name, StartLine: 1, Text: src}},
		arts:  memo.NewStore(),
		ctxs:  memo.NewContextStore(),
	}
	if err := s.rebuild(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// Source returns the program text: the concatenation of the unit texts.
func (s *Session) Source() string {
	var b strings.Builder
	for _, u := range s.units {
		b.WriteString(u.Text)
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
		src += int64(len(u.Text))
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

// Apply applies a sequence of deltas and re-analyzes. Each delta is
// validated against the unit list the deltas before it leave, and an
// invalid one leaves the session untouched. The edited program is derived from
// the resident one when the replace step can take the whole sequence,
// and rebuilt from its text otherwise. Analysis errors (front-end errors
// introduced by the edit, fail-fast budget exhaustion) are returned and
// also retained as the session's result state; the session stays open
// and later edits can repair it.
func (s *Session) Apply(ctx context.Context, edits []Edit) (EditInfo, error) {
	var info EditInfo
	if len(edits) == 0 {
		return info, editErrorf("session: empty edit list")
	}
	units := slices.Clone(s.units)
	for _, e := range edits {
		var err error
		if units, err = s.edit(units, e); err != nil {
			return EditInfo{}, err
		}
		info.DeltaBytes += len(e.Text)
	}
	s.stats.Edits += int64(len(edits))
	s.stats.DeltaBytes += int64(info.DeltaBytes)

	hitsBefore := s.ctxs.Hits()
	var err error
	if blast, ok := s.derive(units); ok {
		info.FastPath, info.UnitsInvalidated = true, blast
		s.stats.FastEdits++
		info.JumpReused, info.SubstReused, err = s.analyze(ctx, nil)
	} else {
		s.units = units
		info.UnitsInvalidated = len(units)
		err = s.rebuild(ctx)
	}
	info.ContextsReused = int(s.ctxs.Hits() - hitsBefore)
	return info, err
}

// edit applies one delta to a chunk list and shifts the start lines of
// the chunks after it by the delta's change in line count. It returns
// an *EditError for an unknown op or an index out of range.
func (s *Session) edit(units []memo.Chunk, e Edit) ([]memo.Chunk, error) {
	at, n := e.Index, len(units)
	switch {
	case e.Op != OpReplace && e.Op != OpAdd && e.Op != OpDelete:
		return nil, editErrorf("session: unknown edit op %q", e.Op)
	case at < 0 || at > n || at == n && e.Op != OpAdd:
		return nil, editErrorf("session: %s index %d out of range (%d units)", e.Op, at, n)
	}
	line := 1
	switch {
	case at < n:
		line = units[at].StartLine
	case at > 0:
		line = units[at-1].StartLine + strings.Count(units[at-1].Text, "\n")
	}
	ch := memo.Chunk{File: s.name, StartLine: line, Text: e.Text}
	shift := strings.Count(e.Text, "\n")
	switch e.Op {
	case OpReplace:
		shift -= strings.Count(units[at].Text, "\n")
		units[at] = ch
		at++
	case OpAdd:
		units = slices.Insert(units, at, ch)
		at++
	case OpDelete:
		shift = -strings.Count(units[at].Text, "\n")
		units = slices.Delete(units, at, at+1)
	}
	for i := at; i < len(units); i++ {
		units[i].StartLine += shift
	}
	return units, nil
}

// derive derives the program of the edited chunk list units from the
// resident one through the replace step, installs both, and returns the
// size of the blast radius. ok is false, and nothing changed, when the
// resident program is no donor, when a chunk other than the last does
// not end a line (its start line would not be its line in the
// concatenated text), when no unit is kept, or when memo.Replace
// rejects the edit.
func (s *Session) derive(units []memo.Chunk) (blast int, ok bool) {
	if !s.donor {
		return 0, false
	}
	for _, c := range units[:max(len(units)-1, 0)] {
		if !strings.HasSuffix(c.Text, "\n") {
			return 0, false
		}
	}
	plan, kept := memo.Plan(s.units, units)
	if kept == 0 {
		return 0, false
	}
	fe, procs, ok := memo.Replace(s.fe, plan)
	if !ok {
		return 0, false
	}
	s.units, s.fe = units, fe
	s.arts.Drop(procs)
	for _, p := range procs {
		s.ctxs.Invalidate(p)
	}
	s.stats.UnitsInvalidated += int64(len(procs))
	return len(procs), true
}

// rebuild re-analyzes the whole program from the concatenated unit
// texts, exactly as a cold analysis would, then recaptures artifacts.
func (s *Session) rebuild(ctx context.Context) error {
	s.wipeArtifacts()
	s.stats.FullRebuilds++
	s.fe = memo.Front{}
	s.analysis, s.subRes, s.front, s.resErr = nil, nil, nil, nil
	s.donor = false

	src := s.Source()
	if chunks, ok := memo.Split(s.name, src); ok {
		s.units = chunks
	} else {
		s.units = []memo.Chunk{{File: s.name, StartLine: 1, Text: src}}
	}
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
	s.donor = len(diags.Diags) == 0 && len(f.Units) == len(s.units) && len(prog.Order) == len(f.Units)
	var front []string
	for _, d := range diags.Diags {
		front = append(front, d.String())
	}
	_, _, err = s.analyze(ctx, front)
	return err
}

// analyze runs the interprocedural driver over the resident program
// with the artifact store's hooks and computes the substitution
// eagerly. It returns how many procedures' jump functions and
// substitution decisions were reused. Artifacts a degraded analysis
// stored, or stored for a program with front-end warnings, are dropped.
func (s *Session) analyze(ctx context.Context, front []string) (jumps, substs int, err error) {
	cfg := s.cfg
	h := s.arts.Hooks(s.fe)
	// The solver consults no value context under complete propagation.
	cfg.Hooks, cfg.Contexts = h, s.ctxs
	a, err := core.AnalyzeProgramErr(ctx, s.fe.Prog, cfg)
	if err != nil {
		s.wipeArtifacts()
		s.resErr = err
		return 0, 0, err
	}
	sub := a.Substitute()
	s.analysis, s.subRes, s.front, s.resErr = a, sub, front, nil
	s.stats.ContextHits = s.ctxs.Hits()
	s.stats.ContextMisses = s.ctxs.Misses()
	jumps, substs = h.Reused()
	s.stats.JumpReused += int64(jumps)
	s.stats.SubstReused += int64(substs)
	if a.Degraded() || len(front) > 0 {
		// A degraded analysis mixes configurations from the fallback
		// chain, and a program with front-end warnings is rebuilt on its
		// next edit: retained artifacts would be dead weight.
		s.wipeArtifacts()
	}
	return jumps, substs, nil
}

func (s *Session) wipeArtifacts() {
	s.arts = memo.NewStore()
	s.ctxs.Reset()
}
