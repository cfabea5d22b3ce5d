// Package ipcp is the public API of the interprocedural constant
// propagation library — a from-scratch implementation of the
// jump-function framework of Callahan, Cooper, Kennedy, and Torczon
// ("Interprocedural Constant Propagation", SIGPLAN 1986), with the jump
// function implementations studied empirically by Grove and Torczon
// (PLDI 1993).
//
// The analyzer consumes F77s, a FORTRAN 77 subset (see the README for
// the grammar). A minimal session:
//
//	res, err := ipcp.Analyze("prog.f", src, ipcp.DefaultConfig())
//	if err != nil { ... }
//	for _, k := range res.ConstantsOf("WORK") {
//	    fmt.Printf("%s = %d on every entry to WORK\n", k.Name, k.Value)
//	}
//
// Configurations mirror the paper's experimental axes: the jump
// function implementation (Literal, Intraprocedural, PassThrough,
// Polynomial), interprocedural MOD information, return jump functions,
// and iterated "complete" propagation with dead-code elimination.
package ipcp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/interp"
	"repro/internal/jump"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/subst"
)

// Kind selects the forward jump function implementation (paper §3.1).
type Kind int

const (
	// Literal: only literal constants at call sites propagate.
	Literal Kind = iota
	// Intraprocedural: constants proven by intraprocedural propagation
	// and value numbering propagate (one call-graph edge at a time).
	Intraprocedural
	// PassThrough: additionally, formals passed through unmodified
	// carry constants along arbitrary call paths. The paper's
	// recommended implementation.
	PassThrough
	// Polynomial: actuals expressible as polynomials of the caller's
	// entry values propagate — the most powerful (and most expensive)
	// implementation.
	Polynomial
)

func (k Kind) String() string { return k.internal().String() }

func (k Kind) internal() jump.Kind {
	switch k {
	case Literal:
		return jump.Literal
	case Intraprocedural:
		return jump.Intraprocedural
	case PassThrough:
		return jump.PassThrough
	default:
		return jump.Polynomial
	}
}

// Solver selects the interprocedural propagation algorithm.
type Solver int

const (
	// Worklist is the simple iterative scheme of the 1993 study.
	Worklist Solver = iota
	// BindingGraph re-evaluates a jump function only when a value in
	// its support lowers, achieving the 1986 paper's cost bounds.
	BindingGraph
)

// Config selects an analysis configuration.
type Config struct {
	// Kind is the forward jump function implementation.
	Kind Kind
	// UseMOD enables interprocedural MOD side-effect summaries at call
	// sites; without them, every call kills every reference actual and
	// every COMMON variable.
	UseMOD bool
	// UseReturnJFs enables return jump functions (constants flowing
	// back out of callees).
	UseReturnJFs bool
	// FullSubstitution lifts the paper's restriction that a return jump
	// function's substituted value is kept only when constant (an
	// extension beyond the paper).
	FullSubstitution bool
	// Complete iterates propagation with constant-driven dead-code
	// elimination until the solution stabilizes (paper Table 3,
	// "Complete Propagation").
	Complete bool
	// Gated builds gated-SSA (γ) jump functions, realizing the paper's
	// suggestion that a GSA-based generator would subsume complete
	// propagation in a single round (an extension; most useful with
	// Kind Polynomial).
	Gated bool
	// Solver selects the propagation algorithm.
	Solver Solver
	// Domain selects the abstract domain the monotone framework
	// propagates. The empty string (and "const") is the paper's
	// constant-propagation lattice; Domains() lists the others:
	// "interval" (ranges with widening), "parity" (even/odd), "taint"
	// (input-dependence), and "cond-const" (constant propagation with
	// branch pruning folded in, equivalent to Complete). Unknown names
	// are an error at Analyze time. The domain is memo-relevant at the
	// whole-program level — it contributes to Fingerprint and to the
	// analysis-service result cache — but jump-function construction is
	// symbolic and shared across domains.
	Domain string
	// Budget bounds the analysis's resource consumption; the zero value
	// is unlimited. On exhaustion the analysis degrades soundly rather
	// than failing (see Result.Degradations).
	Budget Budget
	// Parallelism bounds the worker goroutines used by the phases that
	// fan out per program unit (semantic checking, jump-function
	// construction, substitution counting): <= 0 selects one worker per
	// CPU, 1 runs the pipeline serially. Every Result field — constants,
	// substitution counts, transformed source, solver statistics — is
	// bit-identical across all settings; the knob trades only wall-clock
	// time for cores.
	Parallelism int
	// FailFast turns off in-library graceful degradation: the first
	// budget or deadline exhaustion aborts the analysis and
	// AnalyzeContext returns a *BudgetError instead of a degraded
	// Result. Cancellation also stops the pipeline's worker pools
	// between tasks, so a dead context stops burning CPU promptly.
	// Callers that implement their own retry-at-a-cheaper-configuration
	// policy (such as the ipcp-serve analysis service) set this; plain
	// library users should leave it off and read Result.Degradations.
	FailFast bool
	// Cache, when non-nil, memoizes analysis work across calls (see
	// Cache). Off by default: one-shot command-line analyses gain
	// nothing from it, while long-lived processes (ipcp-serve) enable
	// it. Results are byte-identical either way.
	Cache *Cache
}

// DefaultConfig returns the paper's recommended configuration:
// pass-through jump functions with MOD information and return jump
// functions.
func DefaultConfig() Config {
	return Config{Kind: PassThrough, UseMOD: true, UseReturnJFs: true}
}

func (c Config) internal() core.Config {
	out := core.Config{
		Jump: jump.Config{
			Kind:             c.Kind.internal(),
			UseMOD:           c.UseMOD,
			UseReturnJFs:     c.UseReturnJFs,
			FullSubstitution: c.FullSubstitution,
			Gated:            c.Gated,
		},
		Complete:    c.Complete,
		Budget:      c.Budget.internal(),
		Parallelism: c.Parallelism,
		FailFast:    c.FailFast,
	}
	if c.Solver == BindingGraph {
		out.Solver = core.SolverBinding
	}
	if d, err := domain.Lookup(c.Domain); err == nil {
		out.Domain = d
	}
	return out
}

// validate rejects configurations internal() cannot represent; today
// that is only an unregistered domain name.
func (c Config) validate() error {
	_, err := domain.Lookup(c.Domain)
	return err
}

// Domains lists the registered abstract domain names, sorted; any of
// them is a valid Config.Domain.
func Domains() []string { return domain.Names() }

// Constant is one entry of a CONSTANTS(p) set: the named parameter or
// COMMON variable always holds Value on entry to Procedure.
type Constant struct {
	Procedure string
	Name      string
	Value     int64
	// IsGlobal marks COMMON variables (Name is the canonical member
	// name; Block its COMMON block).
	IsGlobal bool
	Block    string
	// Referenced reports whether the procedure actually reads the value.
	// Constants with Referenced == false are "known but irrelevant"
	// (Metzger & Stroud) — they contribute nothing to optimization.
	Referenced bool
}

func (c Constant) String() string {
	return fmt.Sprintf("%s: (%s, %d)", c.Procedure, c.Name, c.Value)
}

// Result is a completed analysis.
type Result struct {
	analysis *core.Analysis
	file     *ast.File
	subst    *subst.Result
	// Warnings holds non-fatal front-end diagnostics plus a rendered
	// line for each graceful-degradation step (see Degradations).
	Warnings []string
	// Degradations lists the budget-driven fallbacks the analyzer took,
	// in order; empty when the analysis ran to completion as configured.
	Degradations []Warning
	// PhaseStats reports per-phase wall time, work units, cache hits,
	// and degradation events, in execution order (see PhaseStat). Always
	// populated; phases that did not run (e.g. parse after an
	// incremental-cache hit) are absent.
	PhaseStats []PhaseStat
}

// Degraded reports whether any budget axis forced a fallback.
func (r *Result) Degraded() bool { return len(r.Degradations) > 0 }

// Analyze parses, checks, and analyzes an F77s program. Internal
// faults surface as *InternalError, never as panics.
func Analyze(filename, src string, cfg Config) (*Result, error) {
	return AnalyzeContext(context.Background(), filename, src, cfg)
}

// AnalyzeContext is Analyze with a context: cancellation or deadline
// expiry does not abort the analysis but bounds it — the analyzer falls
// back along a sound degradation chain and reports each step in
// Result.Degradations. With Config.FailFast set the chain is disabled:
// the first exhaustion aborts cleanly with a *BudgetError and the
// worker pools stop claiming tasks.
func AnalyzeContext(ctx context.Context, filename, src string, cfg Config) (res *Result, err error) {
	defer recoverInternal(&err)
	return runAnalysis(ctx, []SourceFile{{Name: filename, Src: src}}, false, cfg)
}

// newResult assembles the public Result shared by every pipeline
// configuration: the fresh front end, the memoized replay, and the
// cloning driver all convert warnings and degradations identically.
// front holds the front end's rendered warning diagnostics.
func newResult(analysis *core.Analysis, file *ast.File, sub *subst.Result, front []string) *Result {
	res := &Result{
		analysis: analysis,
		file:     file,
		subst:    sub,
		Warnings: front,
	}
	for _, w := range analysis.Warnings {
		res.Degradations = append(res.Degradations, Warning{
			Axis: string(w.Axis), From: w.From, To: w.To, Detail: w.Detail,
		})
		res.Warnings = append(res.Warnings, w.String())
	}
	return res
}

// Procedures lists the program's procedure names in source order.
func (r *Result) Procedures() []string {
	var out []string
	for _, p := range r.analysis.Prog.Order {
		out = append(out, p.Name)
	}
	return out
}

// ConstantsOf returns CONSTANTS(p) for the named procedure, sorted by
// name (nil if the procedure does not exist or has no constants).
func (r *Result) ConstantsOf(procedure string) []Constant {
	p := r.analysis.Prog.Procs[strings.ToUpper(procedure)]
	if p == nil {
		return nil
	}
	return convertConstants(r.analysis.Constants(p))
}

// Constants returns every procedure's CONSTANTS set.
func (r *Result) Constants() map[string][]Constant {
	out := make(map[string][]Constant)
	for _, p := range r.analysis.Prog.Order {
		if ks := convertConstants(r.analysis.Constants(p)); len(ks) > 0 {
			out[p.Name] = ks
		}
	}
	return out
}

func convertConstants(in []core.Constant) []Constant {
	var out []Constant
	for _, k := range in {
		c := Constant{Procedure: k.Proc.Name, Name: k.Name, Value: k.Value, Referenced: k.Referenced}
		if k.Global != nil {
			c.IsGlobal = true
			c.Block = k.Global.Block
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fact is one abstract-domain fact: the named parameter or COMMON
// variable satisfies Value (the domain's rendering, e.g. "[1,10]",
// "even", "clean") on every entry to Procedure. For the constant
// domains, facts coincide with Constants.
type Fact struct {
	Procedure string
	Name      string
	Value     string
	// IsGlobal marks COMMON variables (Name is the canonical member
	// name; Block its COMMON block).
	IsGlobal bool
	Block    string
}

// Domain reports the abstract domain the analysis ran under.
func (r *Result) Domain() string {
	return r.analysis.Domain().Name()
}

// FactsOf returns the domain facts proven on every entry to the named
// procedure, sorted by name — the generic counterpart of ConstantsOf
// (nil if the procedure does not exist or nothing was proven).
func (r *Result) FactsOf(procedure string) []Fact {
	p := r.analysis.Prog.Procs[strings.ToUpper(procedure)]
	if p == nil {
		return nil
	}
	return convertFacts(r.analysis.Facts(p))
}

// Facts returns every procedure's proven domain facts.
func (r *Result) Facts() map[string][]Fact {
	out := make(map[string][]Fact)
	for _, p := range r.analysis.Prog.Order {
		if fs := convertFacts(r.analysis.Facts(p)); len(fs) > 0 {
			out[p.Name] = fs
		}
	}
	return out
}

func convertFacts(in []core.Fact) []Fact {
	var out []Fact
	for _, f := range in {
		pf := Fact{Procedure: f.Proc.Name, Name: f.Name, Value: f.Value}
		if f.Global != nil {
			pf.IsGlobal = true
			pf.Block = f.Global.Block
		}
		out = append(out, pf)
	}
	return out
}

// SubstitutionCount reports how many constant uses the analyzer would
// substitute into the program text — the effectiveness metric reported
// in the paper's tables.
func (r *Result) SubstitutionCount() int {
	return r.subst.Total
}

// SubstitutionCounts reports the per-procedure breakdown.
func (r *Result) SubstitutionCounts() map[string]int {
	out := make(map[string]int)
	for i, p := range r.subst.Procs {
		if n := r.subst.Decisions[i].Count; n > 0 {
			out[p.Name] = n
		}
	}
	return out
}

// TransformedSource returns the program with every discovered constant
// textually substituted (the analyzer's optional output, §4.1).
func (r *Result) TransformedSource() string {
	return core.RenderSubstituted(r.file, r.subst)
}

// JumpFunctions renders every call site's forward jump functions and
// every procedure's return jump functions, in source order — a window
// into the framework's intermediate artifacts (useful for debugging
// and teaching).
func (r *Result) JumpFunctions() []string {
	var out []string
	funcs := r.analysis.Funcs
	for _, p := range r.analysis.Prog.Order {
		pf := funcs.Procs[p]
		if pf == nil {
			continue
		}
		for _, sf := range pf.Sites {
			line := sf.String()
			if sf.Dead {
				line += " [dead]"
			}
			out = append(out, line)
		}
		if sum := funcs.Returns[p]; sum != nil {
			var parts []string
			for i, f := range p.Formals {
				if e := sum.Formals[i]; e != nil {
					parts = append(parts, fmt.Sprintf("R[%s]=%s", f.Name, e))
				}
			}
			var gkeys []string
			for g := range sum.Globals {
				gkeys = append(gkeys, g.Key())
			}
			sort.Strings(gkeys)
			for _, k := range gkeys {
				for g, e := range sum.Globals {
					if g.Key() == k && e != nil {
						parts = append(parts, fmt.Sprintf("R[%s]=%s", k, e))
					}
				}
			}
			if sum.Result != nil {
				parts = append(parts, fmt.Sprintf("R[result]=%s", sum.Result))
			}
			if len(parts) > 0 {
				out = append(out, fmt.Sprintf("returns %s: %s", p.Name, strings.Join(parts, " ")))
			}
		}
	}
	return out
}

// Stats reports solver work counters.
func (r *Result) Stats() (jfEvaluations, lowerings, rounds int) {
	s := r.analysis.Stats
	return s.JFEvaluations, s.Lowerings, s.Rounds
}

// SourceFile is one input file for AnalyzeFiles.
type SourceFile struct {
	Name string
	Src  string
}

// AnalyzeFiles analyzes a program whose units are spread over several
// files (the usual layout for FORTRAN projects). Units from all files
// share one program: COMMON blocks link across files and any file may
// call any other's procedures.
func AnalyzeFiles(files []SourceFile, cfg Config) (*Result, error) {
	return AnalyzeFilesContext(context.Background(), files, cfg)
}

// AnalyzeFilesContext is AnalyzeFiles with a context bounding the
// analysis (see AnalyzeContext).
func AnalyzeFilesContext(ctx context.Context, files []SourceFile, cfg Config) (res *Result, err error) {
	defer recoverInternal(&err)
	return runAnalysis(ctx, files, true, cfg)
}

// CloneInfo reports what AnalyzeWithCloning did.
type CloneInfo struct {
	// Rounds is the number of clone-and-reanalyze passes performed.
	Rounds int
	// Created is the total number of procedure clones.
	Created int
	// Cloned lists "PROC → PROC_1, PROC_2, …" descriptions.
	Cloned []string
	// Source is the final, cloned program text.
	Source string
}

// AnalyzeWithCloning runs interprocedural constant propagation with
// goal-directed procedure cloning (Metzger & Stroud; Cooper, Hall &
// Kennedy): when different call sites deliver different constants to
// the same procedure — values the lattice meet would destroy — the
// procedure is cloned per constant context and the analysis reruns,
// until no profitable clone remains (or maxRounds passes have run).
func AnalyzeWithCloning(filename, src string, cfg Config, maxRounds int) (*Result, *CloneInfo, error) {
	return AnalyzeWithCloningContext(context.Background(), filename, src, cfg, maxRounds)
}

// AnalyzeWithCloningContext is AnalyzeWithCloning with a context
// bounding each round's analysis. Every round runs the same entry path
// as AnalyzeContext — incremental cache, guard barrier, and pipeline
// included — so Config.Cache benefits cloning the same way it benefits
// plain analysis (clone sources recur across rounds and processes).
// Internal faults in the cloning transformation surface as
// *InternalError, never as panics.
func AnalyzeWithCloningContext(ctx context.Context, filename, src string, cfg Config, maxRounds int) (res *Result, info *CloneInfo, err error) {
	defer recoverInternal(&err)
	res, info, err = analyzeWithCloning(ctx, filename, src, cfg, maxRounds)
	return
}

func analyzeWithCloning(ctx context.Context, filename, src string, cfg Config, maxRounds int) (*Result, *CloneInfo, error) {
	if maxRounds <= 0 {
		maxRounds = 3
	}
	info := &CloneInfo{Source: src}
	tr := pipeline.NewTrace()
	cur := src
	for round := 0; ; round++ {
		res, err := AnalyzeContext(ctx, filename, cur, cfg)
		if err != nil {
			return nil, nil, err
		}
		if round >= maxRounds {
			return cloneFinish(res, tr), info, nil
		}
		next, report := cloneRound(tr, res)
		if report.Created == 0 {
			return cloneFinish(res, tr), info, nil
		}
		info.Rounds++
		info.Created += report.Created
		for _, d := range report.Decisions {
			info.Cloned = append(info.Cloned, fmt.Sprintf("%s → %s", d.Proc, strings.Join(d.Clones, ", ")))
		}
		info.Source = next
		cur = next
	}
}

// cloneFinish appends the cloning driver's accumulated phase stats to
// the final round's result.
func cloneFinish(res *Result, tr *pipeline.Trace) *Result {
	res.PhaseStats = append(res.PhaseStats, convertPhaseStats(tr)...)
	return res
}

// Run executes an F77s program under the reference interpreter,
// supplying input values to READ statements, and returns its printed
// output. It is exposed for testing and for building tooling around the
// analyzer (the examples use it to demonstrate that transformed
// programs behave identically).
func Run(filename, src string, input []int64) (out string, err error) {
	defer recoverInternal(&err)
	var diags source.ErrorList
	f := parser.ParseSource(filename, src, &diags)
	prog := sem.Analyze(f, &diags)
	if err := diags.Err(); err != nil {
		return "", err
	}
	res, err := interp.Run(prog, interp.Options{Input: input})
	if err != nil {
		return "", err
	}
	return res.Output, nil
}
