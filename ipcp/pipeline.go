package ipcp

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/clone"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/subst"
)

// PhaseStat is one analysis phase's contribution to a Result: wall
// time, executions (complete-propagation rounds re-run the jump and
// solve phases), units of work, incremental-cache hits, and
// budget-degradation events attributed to the phase. See
// Result.PhaseStats.
type PhaseStat struct {
	// Phase names the pipeline phase: lookup, parse, sem, graph, jump,
	// solve, subst, assemble (plus clone for AnalyzeWithCloning).
	Phase string `json:"phase"`
	// WallNs is the total wall-clock time in nanoseconds. Phases run
	// sequentially: summing WallNs over an analysis's phases never
	// exceeds the analysis's total wall time.
	WallNs int64 `json:"wall_ns"`
	// Runs counts executions of the phase.
	Runs int64 `json:"runs"`
	// Units counts the phase's units of work (program units parsed and
	// checked, procedures graphed, jump-function evaluations solved).
	Units int64 `json:"units"`
	// MemoHits counts results reused from Config.Cache.
	MemoHits int64 `json:"memo_hits"`
	// Degradations counts budget-driven fallbacks attributed to the
	// phase.
	Degradations int64 `json:"degradations"`
}

func convertPhaseStats(tr *pipeline.Trace) []PhaseStat {
	var out []PhaseStat
	for _, s := range tr.Snapshot() {
		out = append(out, PhaseStat{
			Phase:        s.Phase,
			WallNs:       int64(s.Wall),
			Runs:         s.Runs,
			Units:        s.Units,
			MemoHits:     s.MemoHits,
			Degradations: s.Degradations,
		})
	}
	return out
}

// pipeState is the shared state of one public-API analysis: the input
// sources, the artifacts each phase hands to the next, and the trace
// every phase reports into.
type pipeState struct {
	cfg   Config
	files []SourceFile
	// multi marks the AnalyzeFiles entry point, which (unlike the
	// single-file one) rejects inputs with no program units up front.
	multi bool

	trace    *pipeline.Trace
	diags    source.ErrorList
	world    memo.World
	hasWorld bool
	file     *ast.File
	prog     *sem.Program
	analysis *core.Analysis
	sub      *subst.Result
	out      *Result
}

// runAnalysis runs one analysis's phases in order and stamps the result
// with the trace: lookup when a cache is attached, parse and sem unless
// the cache supplied a front-end world, then analyze, subst and
// assemble. The caller holds the recoverInternal barrier.
func runAnalysis(ctx context.Context, files []SourceFile, multi bool, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	st := &pipeState{cfg: cfg, files: files, multi: multi, trace: pipeline.NewTrace()}
	if cfg.Cache != nil {
		if err := st.timed(ctx, "lookup", runLookup); err != nil {
			return nil, err
		}
	}
	if !st.hasWorld {
		if err := st.timed(ctx, "parse", runParse); err != nil {
			return nil, err
		}
		if err := st.timed(ctx, "sem", runSem); err != nil {
			return nil, err
		}
	}
	if err := runAnalyze(ctx, st); err != nil {
		return nil, err
	}
	if err := st.timed(ctx, "subst", runSubst); err != nil {
		return nil, err
	}
	if err := st.timed(ctx, "assemble", runAssemble); err != nil {
		return nil, err
	}
	st.out.PhaseStats = convertPhaseStats(st.trace)
	return st.out, nil
}

// timed runs one phase, timing it into the trace and attributing a
// panic escaping it to the phase.
func (s *pipeState) timed(ctx context.Context, phase string, run func(context.Context, *pipeState) error) error {
	defer guard.Repanic(phase)
	stop := s.trace.Start(phase)
	err := run(ctx, s)
	stop()
	return err
}

// runLookup asks the incremental cache for a front-end world, which
// the cache either reuses (a memo hit) or builds and retains for the
// next analysis. Ineligible sources (oversized, unsplittable,
// erroneous) yield no world and are not an error: the plain front end
// runs and reproduces any diagnostics exactly.
func runLookup(ctx context.Context, s *pipeState) error {
	mf := make([]memo.File, len(s.files))
	for i, sf := range s.files {
		mf[i] = memo.File{Name: sf.Name, Src: sf.Src}
	}
	if w, hit, ok := s.cfg.Cache.c.Lookup(mf); ok {
		s.world, s.hasWorld = w, true
		if hit {
			s.trace.MemoHit("lookup")
		}
	}
	s.trace.AddUnits("lookup", len(s.files))
	return nil
}

// runParse parses every input file into one merged AST: units from all
// files share one program, so COMMON blocks link across files and any
// file may call any other's procedures.
func runParse(ctx context.Context, s *pipeState) error {
	merged := &ast.File{}
	for _, sf := range s.files {
		f := parser.ParseFile(source.NewFile(sf.Name, sf.Src), &s.diags)
		if merged.Source == nil {
			merged.Source = f.Source
		}
		merged.Units = append(merged.Units, f.Units...)
	}
	if s.multi && len(merged.Units) == 0 {
		return fmt.Errorf("ipcp: no program units in %d file(s)", len(s.files))
	}
	s.file = merged
	s.trace.AddUnits("parse", len(merged.Units))
	return nil
}

// runSem checks the merged AST. Without FailFast the front end always
// completes (it is cheap and a partial Program is useless); the context
// bounds only the analysis proper, which degrades. With FailFast every
// phase observes the context and the first exhaustion aborts.
func runSem(ctx context.Context, s *pipeState) error {
	semCtx := ctx
	if !s.cfg.FailFast {
		semCtx = nil
	}
	prog, err := sem.AnalyzeParallelCtx(semCtx, s.file, &s.diags, s.cfg.Parallelism)
	if err != nil {
		return budgetError(err)
	}
	if err := s.diags.Err(); err != nil {
		return err
	}
	s.prog = prog
	s.trace.AddUnits("sem", len(prog.Order))
	return nil
}

// runAnalyze hands the checked program to the core interprocedural
// driver, threading the trace and (when a world is cached) the memo
// hooks through its configuration. It is not timed: the core driver
// times its own graph, jump and solve phases into the same trace, and
// timing this wrapper too would double-count them.
func runAnalyze(ctx context.Context, s *pipeState) error {
	defer guard.Repanic("analyze")
	ic := s.cfg.internal()
	ic.Trace = s.trace
	prog := s.prog
	if s.hasWorld {
		ic.Hooks = s.world.Hooks()
		prog = s.world.Prog()
	}
	analysis, err := core.AnalyzeProgramErr(ctx, prog, ic)
	if err != nil {
		return budgetError(err)
	}
	s.analysis = analysis
	return nil
}

// runSubst computes the substitution eagerly so its faults surface as
// *InternalError here (and so repeated Result queries share one
// computation).
func runSubst(ctx context.Context, s *pipeState) error {
	s.sub = s.analysis.Substitute()
	s.trace.AddUnits("subst", len(s.analysis.Prog.Order))
	return nil
}

// runAssemble builds the Result, resolving which front end produced the
// AST and diagnostics (fresh parse or cached world).
func runAssemble(ctx context.Context, s *pipeState) error {
	var front []string
	if s.hasWorld {
		s.file = s.world.File()
		for _, d := range s.world.Diags() {
			front = append(front, d.String())
		}
	} else {
		for _, d := range s.diags.Diags {
			front = append(front, d.String())
		}
	}
	s.out = newResult(s.analysis, s.file, s.sub, front)
	return nil
}

// cloneRound runs one round's clone transformation over the round's
// analysis, timing it into the cloning driver's trace (which persists
// across rounds, so clone time accumulates) and attributing a panic
// escaping it to the clone phase.
func cloneRound(tr *pipeline.Trace, res *Result) (next string, report *clone.Report) {
	defer guard.Repanic("clone")
	stop := tr.Start("clone")
	next, report = clone.Apply(res.analysis, res.file, clone.Options{})
	tr.AddUnits("clone", report.Created)
	stop()
	return next, report
}
