// Package core is the interprocedural constant propagation driver — the
// paper's primary contribution. It wires the pipeline together:
//
//  1. return jump functions, bottom-up over the call graph (§4.1);
//  2. forward jump functions per call site (§3.1);
//  3. interprocedural propagation of VAL sets around the call graph,
//     with a choice of solvers: the simple iterative worklist scheme the
//     paper used, or the binding-graph scheme of Callahan–Cooper–
//     Kennedy–Torczon 1986 that achieves the O(Σ cost(J)) bound;
//  4. recording CONSTANTS(p) and (optionally) substituting the
//     constants into the program text.
//
// The "complete propagation" mode (Table 3) iterates: propagate, use
// the discovered constants to prove branches dead, rebuild jump
// functions on the pruned program, and propagate again from scratch,
// until the solution stabilizes.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/dce"
	"repro/internal/domain"
	"repro/internal/guard"
	"repro/internal/intra"
	"repro/internal/jump"
	"repro/internal/lattice"
	"repro/internal/modref"
	"repro/internal/pipeline"
	"repro/internal/sem"
	"repro/internal/ssa"
	"repro/internal/subst"
	"repro/internal/symbolic"
)

// SolverKind selects the interprocedural propagation algorithm.
type SolverKind int

const (
	// SolverWorklist is the simple iterative scheme used in the paper's
	// experiments ("a simple worklist iterative scheme").
	SolverWorklist SolverKind = iota
	// SolverBinding models the 1986 paper's binding-graph computation:
	// jump functions are re-evaluated only when a value in their support
	// actually lowers.
	SolverBinding
)

func (s SolverKind) String() string {
	if s == SolverBinding {
		return "binding-graph"
	}
	return "worklist"
}

// Config selects an experimental configuration.
type Config struct {
	Jump jump.Config
	// Domain selects the abstract domain to propagate — the monotone-
	// framework instance supplying the element lattice and transfer
	// function (package domain). nil selects the constant-propagation
	// domain, preserving the original analyzer exactly. The domain is
	// memo-relevant at the whole-program level (it is folded into
	// memo.ProgramFingerprint and the service result cache) but NOT into
	// jump-function cache keys: jump functions are symbolic expressions,
	// built identically for every domain, so those artifacts are shared
	// across domains by design.
	Domain domain.Domain
	// Complete iterates propagation with dead-code elimination
	// (Table 3's "Complete Propagation").
	Complete bool
	// MaxRounds bounds complete-propagation iterations (safety net; the
	// paper observed a single extra round sufficed).
	MaxRounds int
	Solver    SolverKind
	// Budget bounds the work of one analysis. On exhaustion the driver
	// degrades along the sound chain Polynomial → PassThrough →
	// Intraprocedural → Literal (and complete → single round), recording
	// a Warning per step; the zero Budget is unlimited.
	Budget guard.Budget
	// Parallelism bounds the worker goroutines used by the phases that
	// fan out per procedure (jump-function construction, substitution):
	// <= 0 selects GOMAXPROCS, 1 runs everything serially. Results are
	// identical either way.
	Parallelism int
	// FailFast disables the in-driver degradation chain: the first
	// budget or deadline exhaustion aborts the analysis with the
	// *guard.Exhausted error instead of retrying cheaper configurations.
	// Callers that own their own retry policy (the analysis service) use
	// this to keep one attempt per configuration under their control.
	FailFast bool
	// Hooks, when non-nil, lets a memoization layer supply previously
	// computed phase results and collect fresh ones (package memo). The
	// driver consults it only where reuse is provably equivalent to
	// recomputation: never during complete-propagation jump-function
	// rebuild rounds (those need SSA state the cache does not keep).
	Hooks MemoHooks
	// Trace, when non-nil, collects per-phase wall time, units, memo
	// hits, and degradation events for the driver's phases (graph, jump,
	// solve). It does not participate in memo cache keys: the fingerprint
	// layer hashes an explicit field list.
	Trace *pipeline.Trace
	// Contexts, when non-nil, memoizes per-procedure propagation steps
	// by value context — (procedure, incoming lattice row) — so the
	// worklist solver can replay a step whose inputs repeat instead of
	// re-evaluating its jump functions. Consulted only where reuse is
	// provably equivalent (see context.go); it does not participate in
	// memo cache keys for the same reason as Trace.
	Contexts ContextMemo
}

// MemoHooks is the driver-side interface of an incremental-analysis
// cache. One value serves one analysis, whose attempts run one after
// another.
type MemoHooks interface {
	// Graph returns the memoized call graph and MOD summaries for the
	// program under analysis.
	Graph() (*callgraph.Graph, *modref.Info)
	// Funcs consults the cache before a round-0 jump-function build.
	// Either fns is non-nil (a whole-build hit — trunc is the truncation
	// count the original build observed, to be credited to b), or memo
	// is a per-procedure cache to thread through jump.Build (nil when
	// nothing at all is cached).
	Funcs(c Config, jc jump.Config, b *symbolic.Builder) (fns *jump.Functions, trunc int, memo jump.Memo)
	// StoreFuncs offers a fresh, successful round-0 build back to the
	// cache. trunc is the builder's truncation count after the build.
	StoreFuncs(c Config, fns *jump.Functions, trunc int)
	// Solution returns an earlier round-0 solve that holds for the jump
	// functions Funcs or StoreFuncs last saw and the initial environment
	// init: its VAL sets, over the program under analysis, and the
	// solver statistics it produced. ok is false when there is none.
	Solution(c Config, init map[*sem.GlobalVar]lattice.Value) (vals *Values, st Stats, ok bool)
	// StoreSolution offers a fresh round-0 solve back to the cache.
	StoreSolution(c Config, init map[*sem.GlobalVar]lattice.Value, vals *Values, st Stats)
	// Subst consults the cache before a substitution pass over the
	// solution vals. Either res is non-nil (a whole-pass hit), or memo
	// is a per-procedure cache to thread through subst.Run (nil when
	// nothing is cached).
	Subst(c Config, opts subst.Options, vals *Values) (res *subst.Result, memo subst.Memo)
	// StoreSubst offers a fresh substitution result back to the cache.
	StoreSubst(c Config, opts subst.Options, vals *Values, res *subst.Result)
}

// DefaultConfig is pass-through + MOD + return jump functions — the
// configuration the paper recommends as most cost-effective.
func DefaultConfig() Config {
	return Config{Jump: jump.DefaultConfig(), MaxRounds: 4}
}

// Constant is one (name, value) pair of a CONSTANTS(p) set.
type Constant struct {
	Proc        *sem.Procedure
	Name        string
	FormalIndex int            // -1 for globals
	Global      *sem.GlobalVar // nil for formals
	Value       int64
	// Referenced reports whether p actually reads the value (REF/GREF).
	// Metzger & Stroud observed that procedures often have constant
	// COMMON variables that are "known but irrelevant — that is, they
	// are not referenced inside the procedure"; this flag is how the
	// substitution metric factors them out.
	Referenced bool
}

func (c Constant) String() string { return fmt.Sprintf("(%s, %d)", c.Name, c.Value) }

// Stats counts solver work for the cost comparisons of §3.1.5.
type Stats struct {
	// JFEvaluations counts forward jump function evaluations during
	// propagation.
	JFEvaluations int
	// Lowerings counts lattice value changes.
	Lowerings int
	// Rounds is the number of complete-propagation rounds executed.
	Rounds int
	// DeadInstrs is the dead code found by the final round (complete
	// propagation only).
	DeadInstrs int
}

// Warning describes one step of graceful degradation: which budget axis
// ran out, the configuration that exhausted it, and the sound fallback
// the analysis continued with.
type Warning struct {
	Axis guard.Axis
	// From is the configuration (or behavior) that exhausted the budget.
	From string
	// To is the sound configuration fallen back to; "no-constants" means
	// the all-⊥ solution (every fallback was spent).
	To     string
	Detail string
}

func (w Warning) String() string {
	return fmt.Sprintf("degraded [%s]: %s → %s (%s)", w.Axis, w.From, w.To, w.Detail)
}

// Analysis is the result of interprocedural constant propagation.
type Analysis struct {
	Config Config
	Prog   *sem.Program
	Graph  *callgraph.Graph
	Mod    *modref.Info
	Funcs  *jump.Functions
	Vals   *Values
	Stats  Stats
	// Warnings lists graceful-degradation steps taken to stay within
	// Config.Budget (empty when the analysis ran to completion as
	// configured).
	Warnings []Warning

	builder *symbolic.Builder
	// forms holds the attempt's SSA forms, shared by every jump-function
	// round, dead-code counting and substitution.
	forms *ssa.Table
	chk   *guard.Checker
	dom   domain.Domain // resolved domain; never nil
}

// Domain returns the analysis's resolved abstract domain (never nil;
// the constant domain when Config.Domain was nil).
func (a *Analysis) Domain() domain.Domain { return a.dom }

// Degraded reports whether any budget axis forced the analysis below
// its requested configuration.
func (a *Analysis) Degraded() bool { return len(a.Warnings) > 0 }

// AnalyzeProgram runs the full interprocedural analysis over an
// analyzed program.
func AnalyzeProgram(prog *sem.Program, cfgg Config) *Analysis {
	return AnalyzeProgramContext(context.Background(), prog, cfgg)
}

// AnalyzeProgramContext is AnalyzeProgram under a context deadline and
// the configuration's Budget. It never fails: on budget exhaustion it
// retries with the next cheaper configuration in the sound chain
// (complete → single round, gated off, then Polynomial → PassThrough →
// Intraprocedural → Literal), and when even the cheapest configuration
// cannot finish it returns the all-⊥ "no constants" solution. Every
// step is recorded in the result's Warnings.
func AnalyzeProgramContext(ctx context.Context, prog *sem.Program, cfgg Config) *Analysis {
	cfgg.FailFast = false
	a, _ := AnalyzeProgramErr(ctx, prog, cfgg)
	return a
}

// AnalyzeProgramErr is AnalyzeProgramContext with the FailFast knob
// honored: with FailFast set it runs exactly one attempt at the given
// configuration and returns the *guard.Exhausted (or injected) error on
// exhaustion, leaving retry-at-a-cheaper-configuration policy to the
// caller. Without FailFast the error is always nil and the degradation
// chain applies as in AnalyzeProgramContext.
func AnalyzeProgramErr(ctx context.Context, prog *sem.Program, cfgg Config) (*Analysis, error) {
	if cfgg.MaxRounds <= 0 {
		cfgg.MaxRounds = 4
	}
	// A pruning domain (conditional constant propagation) requests the
	// complete-propagation loop regardless of Config.Complete; normalize
	// here so degradation, memo gating, and round accounting all see one
	// consistent flag.
	if cfgg.Domain != nil && cfgg.Domain.Prunes() {
		cfgg.Complete = true
	}
	if cfgg.FailFast {
		return analyzeAttempt(ctx, prog, cfgg)
	}
	var warns []Warning
	attempt := cfgg
	for {
		a, err := analyzeAttempt(ctx, prog, attempt)
		if err == nil {
			a.Warnings = append(warns, a.Warnings...)
			return a, nil
		}
		next, ok := degrade(attempt)
		w := Warning{Axis: axisOf(err), From: describeConfig(attempt), To: "no-constants", Detail: err.Error()}
		if ok {
			w.To = describeConfig(next)
		}
		warns = append(warns, w)
		cfgg.Trace.Degradation(siteOf(err))
		if !ok {
			a := bottomAnalysis(prog, attempt)
			a.Warnings = warns
			return a, nil
		}
		attempt = next
		// The steps the failed attempt recorded replay its jump
		// functions, which a fallback configuration does not build.
		attempt.Contexts = nil
	}
}

// degrade returns the next cheaper configuration in the sound fallback
// chain; ok is false when the configuration is already minimal.
func degrade(c Config) (Config, bool) {
	switch {
	case c.Complete:
		c.Complete = false
	case c.Jump.Gated:
		c.Jump.Gated = false
	case c.Jump.Kind > jump.Literal:
		c.Jump.Kind--
	default:
		return c, false
	}
	return c, true
}

// describeConfig names a configuration for degradation warnings.
func describeConfig(c Config) string {
	s := c.Jump.Kind.String()
	if name := domain.NameOf(c.Domain); name != "const" {
		s = name + "/" + s
	}
	if c.Jump.Gated {
		s += "+gated"
	}
	if c.Complete {
		s += "+complete"
	}
	return s
}

// axisOf extracts the budget axis from an attempt error.
func axisOf(err error) guard.Axis {
	var ex *guard.Exhausted
	if errors.As(err, &ex) {
		return ex.Axis
	}
	return guard.Axis("injected")
}

// siteOf extracts the pipeline site that exhausted its budget, for
// trace attribution; injected faults fall back to the driver itself.
func siteOf(err error) string {
	var ex *guard.Exhausted
	if errors.As(err, &ex) && ex.Site != "" {
		return ex.Site
	}
	return "analyze"
}

// attemptState is the shared state of one analysis attempt: the
// analysis under construction plus the round-loop variables the
// complete-propagation driver feeds back between phase executions.
type attemptState struct {
	a    *Analysis
	cfg  Config
	prog *sem.Program
	chk  *guard.Checker
	init map[*sem.GlobalVar]lattice.Value

	// Round-loop feedback (complete propagation).
	round int
	prune bool
	entry jump.EntryEnv
	prev  *Values
}

// phase runs one execution of a driver phase (graph, jump or solve). It
// times the execution into the trace, attributes a panic escaping it to
// the phase, and pre-checks the deadline so a dead context surfaces as
// the same *guard.Exhausted the phase's own inline checks produce.
func (s *attemptState) phase(ctx context.Context, name string, run func(context.Context, *attemptState) error) error {
	stop := s.cfg.Trace.Start(name)
	defer guard.Repanic(name)
	err := s.chk.Deadline(name)
	if err == nil {
		err = run(ctx, s)
	}
	stop()
	return err
}

// runGraph builds (or fetches from the memo layer) the call graph and
// MOD/REF summaries.
func runGraph(ctx context.Context, s *attemptState) error {
	if s.cfg.Hooks != nil {
		s.a.Graph, s.a.Mod = s.cfg.Hooks.Graph()
	} else {
		s.a.Graph = callgraph.Build(s.prog)
		s.a.Mod = modref.Compute(s.a.Graph)
	}
	s.a.forms = newForms(s.a.Graph, s.a.Mod, s.cfg.Jump.UseMOD)
	s.cfg.Trace.AddUnits("graph", len(s.prog.Order))
	return nil
}

// newForms returns an empty SSA table over cg whose call sites kill what
// MOD information says they may modify, or everything without it.
func newForms(cg *callgraph.Graph, mod *modref.Info, useMOD bool) *ssa.Table {
	if useMOD {
		return ssa.NewTable(cg, mod.Kills)
	}
	return ssa.NewTable(cg, nil)
}

// runJump builds the round's jump functions, consulting the memo layer
// where reuse is provably equivalent: only the canonical round-0 build —
// rebuild rounds of complete propagation feed back entry environments
// and pruning, which the cache keys do not cover.
func runJump(ctx context.Context, s *attemptState) error {
	jc := s.cfg.Jump
	jc.Prune = s.prune
	jc.Check = func() error { return s.chk.Deadline("jump") }
	jc.Parallelism = s.cfg.Parallelism
	useMemo := s.cfg.Hooks != nil && !s.cfg.Complete && s.round == 0
	var fns *jump.Functions
	if useMemo {
		cached, trunc, pm := s.cfg.Hooks.Funcs(s.cfg, jc, s.a.builder)
		if cached != nil {
			s.a.builder.AddTruncated(trunc)
			fns = cached
			s.cfg.Trace.MemoHit("jump")
		} else {
			jc.Memo = pm
			var err error
			fns, err = jump.Build(ctx, s.a.Graph, s.a.Mod, s.a.forms, s.a.builder, jc, s.entry)
			if err != nil {
				return err
			}
			s.cfg.Hooks.StoreFuncs(s.cfg, fns, s.a.builder.Truncated())
		}
	} else {
		var err error
		fns, err = jump.Build(ctx, s.a.Graph, s.a.Mod, s.a.forms, s.a.builder, jc, s.entry)
		if err != nil {
			return err
		}
	}
	s.a.Funcs = fns
	s.cfg.Trace.AddUnits("jump", len(s.prog.Order))
	return nil
}

// runSolve propagates VAL sets around the call graph with the
// configured solver. Where the memo layer serves the round-0 jump
// functions, it may also hold a solve of the same forward jump
// functions from the same DATA initializations: the solution is then
// carried over, with its statistics and its step count, instead of
// solved again. A solve the step budget might have stopped is solved
// again, so the budget stops it where it would.
func runSolve(ctx context.Context, s *attemptState) error {
	before := s.a.Stats
	h := s.cfg.Hooks
	memo := h != nil && !s.cfg.Complete && s.round == 0
	if memo {
		vals, st, ok := h.Solution(s.cfg, s.init)
		if limit := s.cfg.Budget.MaxSolverSteps; ok && (limit <= 0 || st.JFEvaluations <= limit) {
			if err := guard.Inject("solve"); err != nil {
				return err
			}
			s.chk.Add(st.JFEvaluations)
			s.a.Vals = vals
			s.a.Stats.JFEvaluations += st.JFEvaluations
			s.a.Stats.Lowerings += st.Lowerings
			s.cfg.Trace.MemoHit("solve")
			s.cfg.Trace.AddUnits("solve", st.JFEvaluations)
			return nil
		}
	}
	vals, err := s.a.solve(s.init, s.chk)
	if err != nil {
		return err
	}
	s.a.Vals = vals
	evals := s.a.Stats.JFEvaluations - before.JFEvaluations
	s.cfg.Trace.AddUnits("solve", evals)
	if memo {
		h.StoreSolution(s.cfg, s.init, vals, Stats{JFEvaluations: evals, Lowerings: s.a.Stats.Lowerings - before.Lowerings})
	}
	return nil
}

// analyzeAttempt runs one analysis attempt under one configuration,
// reporting *guard.Exhausted when a budget axis runs out mid-flight.
func analyzeAttempt(ctx context.Context, prog *sem.Program, cfgg Config) (*Analysis, error) {
	chk := guard.NewChecker(ctx, cfgg.Budget)
	a := &Analysis{
		Config:  cfgg,
		Prog:    prog,
		builder: symbolic.NewBuilder(),
		chk:     chk,
		dom:     resolveDomain(cfgg),
	}
	if cfgg.Budget.MaxExprSize > 0 {
		a.builder.SetMaxSize(cfgg.Budget.MaxExprSize)
	}
	st := &attemptState{a: a, cfg: cfgg, prog: prog, chk: chk}
	if err := st.phase(ctx, "graph", runGraph); err != nil {
		return nil, err
	}

	st.init = DataInits(prog)

	// The complete-propagation round cap: the configuration's safety net,
	// tightened further by the budget's rounds axis.
	maxRounds := cfgg.MaxRounds
	roundsCapped := false
	if b := cfgg.Budget.MaxRounds; b > 0 && b < maxRounds {
		maxRounds = b
		roundsCapped = true
	}

	for st.round = 0; ; st.round++ {
		if err := st.phase(ctx, "jump", runJump); err != nil {
			return nil, err
		}
		if err := st.phase(ctx, "solve", runSolve); err != nil {
			return nil, err
		}
		a.Stats.Rounds = int(chk.AddRound())
		if !cfgg.Complete || st.round+1 >= maxRounds {
			// Each round's solution is a sound fixed point; stopping at
			// the budget's round cap is graceful degradation, not an
			// abort — note it and keep the last solution.
			if cfgg.Complete && roundsCapped && st.round+1 >= maxRounds && (st.prev == nil || !a.Vals.Equal(st.prev)) {
				a.Warnings = append(a.Warnings, Warning{
					Axis: guard.AxisRounds,
					From: describeConfig(cfgg),
					To:   fmt.Sprintf("%s (stopped after %d round(s))", describeConfig(cfgg), maxRounds),
					Detail: fmt.Sprintf("complete propagation truncated at round cap %d before stabilizing",
						maxRounds),
				})
				cfgg.Trace.Degradation("solve")
			}
			break
		}
		if st.prev != nil && a.Vals.Equal(st.prev) {
			break
		}
		st.prev = a.Vals
		st.entry = a.Vals.EntryEnv
		st.prune = true
	}

	if t := a.builder.Truncated(); t > 0 {
		a.Warnings = append(a.Warnings, Warning{
			Axis: guard.AxisExprSize,
			From: describeConfig(cfgg),
			To:   describeConfig(cfgg),
			Detail: fmt.Sprintf("%d jump-function expression(s) over size cap %d degraded to ⊥",
				t, cfgg.Budget.MaxExprSize),
		})
		cfgg.Trace.Degradation("jump")
	}

	if cfgg.Complete {
		a.Stats.DeadInstrs = a.countDeadInstrs()
	}
	return a, nil
}

// bottomAnalysis is the final fallback: the all-⊥ solution, trivially
// sound (it claims no constants). Substitution over it still performs
// the purely intraprocedural pass, which needs no solver iteration.
func bottomAnalysis(prog *sem.Program, cfgg Config) *Analysis {
	a := &Analysis{
		Config:  cfgg,
		Prog:    prog,
		builder: symbolic.NewBuilder(),
		dom:     resolveDomain(cfgg),
	}
	if cfgg.Hooks != nil {
		a.Graph, a.Mod = cfgg.Hooks.Graph()
	} else {
		a.Graph = callgraph.Build(prog)
		a.Mod = modref.Compute(a.Graph)
	}
	a.forms = newForms(a.Graph, a.Mod, cfgg.Jump.UseMOD)
	a.Funcs = &jump.Functions{
		Config:  cfgg.Jump,
		Graph:   a.Graph,
		Mod:     a.Mod,
		Builder: a.builder,
		Returns: make(map[*sem.Procedure]*intra.ReturnSummary),
		Procs:   make(map[*sem.Procedure]*jump.ProcFunctions),
	}
	a.Vals = BottomValues(prog, a.dom)
	return a
}

// resolveDomain maps the config's domain selector to a concrete
// instance: nil means the constant domain.
func resolveDomain(c Config) domain.Domain {
	if c.Domain != nil {
		return c.Domain
	}
	return domain.Const()
}

func (a *Analysis) solve(init map[*sem.GlobalVar]lattice.Value, chk *guard.Checker) (*Values, error) {
	switch a.Config.Solver {
	case SolverBinding:
		return a.solveBinding(init, chk)
	default:
		return a.solveWorklist(init, chk)
	}
}

// RunSolver re-runs interprocedural propagation over the analysis's
// final jump functions with the given solver, returning the fresh VAL
// solution and the number of jump-function evaluations it performed.
// The analysis itself is left untouched — Config, Stats, and the budget
// checker are restored on return — so callers can ablate the worklist
// against the binding-graph scheme on identical inputs (the solver
// exhibits of cmd/ipcp-bench). Under complete propagation the final
// jump functions reflect the last round's pruning, so the re-run
// reproduces that round's solve. Not safe for concurrent use with
// other methods of a.
func (a *Analysis) RunSolver(kind SolverKind) (*Values, int, error) {
	savedSolver, savedStats, savedChk := a.Config.Solver, a.Stats, a.chk
	defer func() {
		a.Config.Solver, a.Stats, a.chk = savedSolver, savedStats, savedChk
	}()
	a.Config.Solver = kind
	if a.chk == nil {
		a.chk = guard.NewChecker(context.Background(), guard.Budget{})
	}
	before := a.Stats.JFEvaluations
	vals, err := a.solve(DataInits(a.Prog), a.chk)
	evals := a.Stats.JFEvaluations - before
	if err != nil {
		return nil, evals, err
	}
	return vals, evals, nil
}

func (a *Analysis) countDeadInstrs() int {
	var results []*dce.Result
	for _, r := range a.Funcs.Intra {
		results = append(results, dce.Analyze(r.F, r))
	}
	return dce.TotalDeadInstrs(results)
}

// Constants returns CONSTANTS(p): the formals and globals proven
// constant on every entry to p. ⊤ values (procedure never called) are
// not reported.
func (a *Analysis) Constants(p *sem.Procedure) []Constant {
	var out []Constant
	for i, f := range p.Formals {
		if f.IsArray || f.Type != ast.TypeInteger {
			continue
		}
		if c, ok := a.Vals.Formal(p, i).IsConst(); ok {
			out = append(out, Constant{Proc: p, Name: f.Name, FormalIndex: i, Value: c,
				Referenced: a.Mod.Ref(p, i)})
		}
	}
	for _, g := range a.Prog.Globals() {
		if g.IsArray || g.Type != ast.TypeInteger {
			continue
		}
		if c, ok := a.Vals.Global(p, g).IsConst(); ok {
			out = append(out, Constant{Proc: p, Name: g.Name, FormalIndex: -1, Global: g, Value: c,
				Referenced: a.Mod.GRef(p, g)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fact is one proven abstract fact of a non-constant domain: a formal
// or global whose VAL entry is a Mid element (strictly between ⊤ and
// ⊥), rendered through the domain's Format. For the constant domain
// Facts and Constants coincide (every Mid element is a constant).
type Fact struct {
	Proc        *sem.Procedure
	Name        string
	FormalIndex int            // -1 for globals
	Global      *sem.GlobalVar // nil for formals
	// Value is the domain's rendering, e.g. "[1,10]", "even", "clean".
	Value string
}

// Facts returns the domain facts proven on every entry to p, sorted by
// name — the generic counterpart of Constants.
func (a *Analysis) Facts(p *sem.Procedure) []Fact {
	var out []Fact
	for i, f := range p.Formals {
		if f.IsArray || f.Type != ast.TypeInteger {
			continue
		}
		if e := a.Vals.FormalElem(p, i); e.L == domain.LevelMid {
			out = append(out, Fact{Proc: p, Name: f.Name, FormalIndex: i, Value: a.dom.Format(e)})
		}
	}
	for _, g := range a.Prog.Globals() {
		if g.IsArray || g.Type != ast.TypeInteger {
			continue
		}
		if e := a.Vals.GlobalElem(p, g); e.L == domain.LevelMid {
			out = append(out, Fact{Proc: p, Name: g.Name, FormalIndex: -1, Global: g, Value: a.dom.Format(e)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllConstants returns the CONSTANTS sets of every procedure, in source
// order.
func (a *Analysis) AllConstants() map[*sem.Procedure][]Constant {
	m := make(map[*sem.Procedure][]Constant)
	for _, p := range a.Prog.Order {
		m[p] = a.Constants(p)
	}
	return m
}

// Substitute counts (and records) the constants the analyzer would
// substitute into the program text — the paper's reported metric.
func (a *Analysis) Substitute() *subst.Result {
	opts := a.substOptions()
	if h := a.Config.Hooks; h != nil {
		res, pm := h.Subst(a.Config, opts, a.Vals)
		if res != nil {
			a.Config.Trace.MemoHit("subst")
			return res
		}
		if pm != nil {
			opts.Memo = pm
			res = subst.Run(a.Graph, a.Mod, a.forms, opts)
			h.StoreSubst(a.Config, opts, a.Vals, res)
			return res
		}
	}
	return subst.Run(a.Graph, a.Mod, a.forms, opts)
}

// substOptions configures substitution over the analysis's solution,
// handing it the value numbering jump construction stored for each
// procedure.
func (a *Analysis) substOptions() subst.Options {
	return subst.Options{
		UseMOD:           a.Config.Jump.UseMOD,
		UseReturnJFs:     a.Config.Jump.UseReturnJFs,
		Returns:          a.Funcs.Returns,
		FullSubstitution: a.Config.Jump.FullSubstitution,
		Gated:            a.Config.Jump.Gated,
		Prune:            a.Config.Complete,
		Entry:            a.Vals.EntryEnv,
		Intra: func(p *sem.Procedure) *intra.Result {
			if i := a.Prog.ProcIndex(p); i >= 0 && i < len(a.Funcs.Intra) {
				return a.Funcs.Intra[i]
			}
			return nil
		},
		MaxExprSize: a.builder.MaxSize(),
		Parallelism: a.Config.Parallelism,
	}
}

// TransformedSource returns the program text with every substituted use
// replaced by its constant (the analyzer's optional output).
func (a *Analysis) TransformedSource(f *ast.File) string {
	return RenderSubstituted(f, a.Substitute())
}

// RenderSubstituted writes the program text with an already-computed
// substitution applied (so callers can cache one subst.Result for both
// counting and rendering).
func RenderSubstituted(f *ast.File, res *subst.Result) string {
	var b strings.Builder
	_ = ast.WriteFileSubst(&b, f, res.Replacements())
	return b.String()
}

// IntraproceduralCount is the Table 3 baseline: purely intraprocedural
// constant propagation (no values cross call boundaries) with MOD
// information.
func IntraproceduralCount(prog *sem.Program) *subst.Result {
	cg := callgraph.Build(prog)
	mod := modref.Compute(cg)
	// Serial: this baseline runs as one cell of the table sweeps, which
	// already fan out across cells.
	return subst.Run(cg, mod, newForms(cg, mod, true), subst.Options{UseMOD: true, Parallelism: 1})
}

// DataInits scans all DATA statements for load-time initializations of
// COMMON globals; they form the initial environment of the main
// program.
func DataInits(prog *sem.Program) map[*sem.GlobalVar]lattice.Value {
	out := make(map[*sem.GlobalVar]lattice.Value)
	for _, p := range prog.Order {
		for _, d := range p.Unit.Decls {
			dd, ok := d.(*ast.DataDecl)
			if !ok {
				continue
			}
			for i, name := range dd.Names {
				if i >= len(dd.Values) {
					break
				}
				s := p.Lookup(name)
				if s == nil || s.Kind != sem.SymCommon || s.IsArray || s.Global.Type != ast.TypeInteger {
					continue
				}
				v := constOfLiteral(dd.Values[i])
				if cur, seen := out[s.Global]; seen {
					out[s.Global] = lattice.Meet(cur, v)
				} else {
					out[s.Global] = v
				}
			}
		}
	}
	return out
}

func constOfLiteral(e ast.Expr) lattice.Value {
	switch x := e.(type) {
	case *ast.IntLit:
		return lattice.ConstValue(x.Value)
	case *ast.Unary:
		if x.Op == ast.OpNeg {
			if lit, ok := x.X.(*ast.IntLit); ok {
				return lattice.ConstValue(-lit.Value)
			}
		}
	}
	return lattice.BottomValue()
}

// ---------------------------------------------------------------------
// VAL sets

// Values holds VAL(p) for every procedure: one abstract element of the
// analysis's domain per formal parameter and per (procedure, global)
// pair. Storage is dense — two flat slices indexed by the program's
// sealed procedure and global indices (sem.Program.ProcIndex /
// GlobalIndex) — so a whole solution is three allocations and the
// solver's meets walk contiguous memory instead of chasing
// per-procedure maps. (The zero domain.Elem is ⊤ for every domain,
// which is what keeps the fresh-solution cost at three allocations.)
//
// For domains of unbounded height (Widens), Values also carries one
// descent counter per cell: after domain.WidenThreshold plain meets, a
// cell's lowering is routed through Domain.Widen, restoring the
// finite-descent property both solvers' termination relies on.
type Values struct {
	prog  *sem.Program
	dom   domain.Domain
	nGlob int
	// formalOff has len(Order)+1 entries; procedure i's formal row is
	// formals[formalOff[i]:formalOff[i+1]].
	formalOff []int32
	formals   []domain.Elem
	// globals is the dense VAL matrix: globals[i*nGlob+j] is
	// VAL(Order[i])[Globals()[j]].
	globals []domain.Elem
	// fCnt/gCnt are per-cell descent counters, allocated only for
	// widening domains (nil otherwise, costing constant-domain runs
	// nothing).
	fCnt, gCnt []uint8
}

// NewValues returns the all-⊤ initial VAL sets over dom.
func NewValues(prog *sem.Program, dom domain.Domain) *Values {
	order := prog.Order
	gs := prog.Globals()
	off := make([]int32, len(order)+1)
	total := 0
	for i, p := range order {
		off[i] = int32(total)
		total += len(p.Formals)
	}
	off[len(order)] = int32(total)
	// The zero domain.Elem is ⊤, so fresh slices need no init pass.
	v := &Values{
		prog:      prog,
		dom:       dom,
		nGlob:     len(gs),
		formalOff: off,
		formals:   make([]domain.Elem, total),
		globals:   make([]domain.Elem, len(order)*len(gs)),
	}
	if dom.Widens() {
		v.fCnt = make([]uint8, total)
		v.gCnt = make([]uint8, len(order)*len(gs))
	}
	return v
}

// BottomValues returns the all-⊥ VAL sets: the trivially sound
// "no facts anywhere" solution used when every budget fallback has been
// spent.
func BottomValues(prog *sem.Program, dom domain.Domain) *Values {
	v := NewValues(prog, dom)
	bot := dom.Bottom()
	for i := range v.formals {
		v.formals[i] = bot
	}
	for i := range v.globals {
		v.globals[i] = bot
	}
	return v
}

// formalRow returns procedure pi's formal row.
func (v *Values) formalRow(pi int) []domain.Elem {
	return v.formals[v.formalOff[pi]:v.formalOff[pi+1]]
}

// globalRow returns procedure pi's global row.
func (v *Values) globalRow(pi int) []domain.Elem {
	return v.globals[pi*v.nGlob : (pi+1)*v.nGlob]
}

// FormalElem returns VAL(p)[formal i] as a raw domain element.
func (v *Values) FormalElem(p *sem.Procedure, i int) domain.Elem {
	pi := v.prog.ProcIndex(p)
	if pi < 0 {
		return v.dom.Bottom()
	}
	fs := v.formalRow(pi)
	if i < 0 || i >= len(fs) {
		return v.dom.Bottom()
	}
	return fs[i]
}

// GlobalElem returns VAL(p)[g] as a raw domain element (⊤ when p or g
// is unknown, matching the never-called procedure's value).
func (v *Values) GlobalElem(p *sem.Procedure, g *sem.GlobalVar) domain.Elem {
	pi, gi := v.prog.ProcIndex(p), v.prog.GlobalIndex(g)
	if pi < 0 || gi < 0 {
		return domain.Top()
	}
	return v.globals[pi*v.nGlob+gi]
}

// Formal returns VAL(p)[formal i] in the constant view: the
// lattice.Value every non-generic consumer (substitution, cloning,
// CONSTANTS) understands. Exact for the constant domain; for other
// domains a Mid element maps to a constant only when the domain proves
// a single value (e.g. a singleton interval).
func (v *Values) Formal(p *sem.Procedure, i int) lattice.Value {
	return domain.ToLattice(v.dom, v.FormalElem(p, i))
}

// Global returns VAL(p)[g] in the constant view.
func (v *Values) Global(p *sem.Procedure, g *sem.GlobalVar) lattice.Value {
	return domain.ToLattice(v.dom, v.GlobalElem(p, g))
}

// LowerFormal meets a new element into VAL(p)[i], reporting change.
func (v *Values) LowerFormal(p *sem.Procedure, i int, nv domain.Elem) bool {
	pi := v.prog.ProcIndex(p)
	if pi < 0 {
		return false
	}
	if i < 0 || int(v.formalOff[pi])+i >= int(v.formalOff[pi+1]) {
		return false
	}
	return v.lowerFormalAt(pi, i, nv)
}

// LowerGlobal meets a new element into VAL(p)[g], reporting change.
func (v *Values) LowerGlobal(p *sem.Procedure, g *sem.GlobalVar, nv domain.Elem) bool {
	pi, gi := v.prog.ProcIndex(p), v.prog.GlobalIndex(g)
	if pi < 0 || gi < 0 {
		return false
	}
	return v.lowerGlobalAt(pi, gi, nv)
}

// lowerFormalAt and lowerGlobalAt are the solver-internal index-based
// variants (no identity lookups in the inner loop).
func (v *Values) lowerFormalAt(pi, i int, nv domain.Elem) bool {
	idx := int(v.formalOff[pi]) + i
	var cnt *uint8
	if v.fCnt != nil {
		cnt = &v.fCnt[idx]
	}
	return v.lowerCell(&v.formals[idx], cnt, nv)
}

func (v *Values) lowerGlobalAt(pi, gi int, nv domain.Elem) bool {
	idx := pi*v.nGlob + gi
	var cnt *uint8
	if v.gCnt != nil {
		cnt = &v.gCnt[idx]
	}
	return v.lowerCell(&v.globals[idx], cnt, nv)
}

// lowerCell meets nv into a cell, reporting change. For widening
// domains the cell's descent counter decides when a plain meet becomes
// a widen: the first WidenThreshold descents are exact (so small
// bounded loops converge precisely), after which Widen accelerates the
// remaining descents to a finite number.
func (v *Values) lowerCell(cell *domain.Elem, cnt *uint8, nv domain.Elem) bool {
	m := v.dom.Meet(*cell, nv)
	if m == *cell {
		return false
	}
	if cnt != nil {
		if *cnt >= domain.WidenThreshold {
			m = v.dom.Widen(*cell, m)
			if m == *cell {
				return false
			}
		} else {
			*cnt++
		}
	}
	*cell = m
	return true
}

// Equal reports whether two VAL solutions coincide.
func (v *Values) Equal(o *Values) bool {
	if len(v.formals) != len(o.formals) || len(v.globals) != len(o.globals) {
		return false
	}
	for i := range v.formals {
		if v.formals[i] != o.formals[i] {
			return false
		}
	}
	for i := range v.globals {
		if v.globals[i] != o.globals[i] {
			return false
		}
	}
	return true
}

// Program returns the program the solution is over.
func (v *Values) Program() *sem.Program { return v.prog }

// For returns the solution over prog, a program the replace step
// derived from v's that lists procedures of the same names, in the same
// order, over the same globals; ok is false for any other program. The
// two share their storage, which no one lowers after a solve.
func (v *Values) For(prog *sem.Program) (w *Values, ok bool) {
	if v.prog == prog {
		return v, true
	}
	if len(prog.Order) != len(v.prog.Order) || !slices.Equal(prog.Globals(), v.prog.Globals()) {
		return nil, false
	}
	for i, p := range prog.Order {
		if q := v.prog.Order[i]; p.Name != q.Name || len(p.Formals) != len(q.Formals) {
			return nil, false
		}
	}
	c := *v
	c.prog = prog
	return &c, true
}

// SameRow reports whether VAL(p) is the same in v and in o, a solution
// over a program that also has p.
func (v *Values) SameRow(o *Values, p *sem.Procedure) bool {
	pi, qi := v.prog.ProcIndex(p), o.prog.ProcIndex(p)
	if pi < 0 || qi < 0 || v.nGlob != o.nGlob {
		return false
	}
	return slices.Equal(v.formalRow(pi), o.formalRow(qi)) && slices.Equal(v.globalRow(pi), o.globalRow(qi))
}

// EntryEnv adapts VAL(p) to the intra engine's entry environment: only
// elements that prove a single constant are included (for the constant
// domain, exactly the constants; for intervals, the singleton ranges;
// parity and taint prove values, not constants, and contribute
// nothing — their substitution is purely intraprocedural).
func (v *Values) EntryEnv(p *sem.Procedure) map[ssa.Var]int64 {
	env := make(map[ssa.Var]int64)
	for i, f := range p.Formals {
		if c, ok := v.dom.ConstOf(v.FormalElem(p, i)); ok {
			env[ssa.VarOf(f)] = c
		}
	}
	if pi := v.prog.ProcIndex(p); pi >= 0 {
		gs := v.prog.Globals()
		for gi, val := range v.globalRow(pi) {
			if c, ok := v.dom.ConstOf(val); ok {
				env[ssa.GlobalVar(gs[gi])] = c
			}
		}
	}
	return env
}

// envFor builds the jump-function evaluation environment from VAL(p).
func (v *Values) envFor(p *sem.Procedure) domain.Env {
	return v.envAt(v.prog.ProcIndex(p))
}

// envAt is envFor by sealed procedure index: the caller's identity is
// resolved once, so each leaf evaluation is two slice reads.
func (v *Values) envAt(pi int) domain.Env {
	return func(leaf *symbolic.Expr) domain.Elem {
		switch leaf.Op {
		case symbolic.OpParam:
			// The leaf's symbol belongs to the caller.
			if pi < 0 {
				return v.dom.Bottom()
			}
			fs := v.formalRow(pi)
			if i := leaf.Param.FormalIndex; i >= 0 && i < len(fs) {
				return fs[i]
			}
			return v.dom.Bottom()
		case symbolic.OpGlobal:
			gi := v.prog.GlobalIndex(leaf.Global)
			if pi < 0 || gi < 0 {
				return domain.Top()
			}
			return v.globals[pi*v.nGlob+gi]
		}
		return v.dom.Bottom()
	}
}

// String renders the non-⊤ values for debugging.
func (v *Values) String() string {
	var b strings.Builder
	gs := v.prog.Globals()
	byKey := make([]int, len(gs))
	for i := range byKey {
		byKey[i] = i
	}
	sort.Slice(byKey, func(i, j int) bool { return gs[byKey[i]].Key() < gs[byKey[j]].Key() })
	for pi, p := range v.prog.Order {
		fmt.Fprintf(&b, "%s:", p.Name)
		fs := v.formalRow(pi)
		for i, f := range p.Formals {
			fmt.Fprintf(&b, " %s=%s", f.Name, v.dom.Format(fs[i]))
		}
		row := v.globalRow(pi)
		for _, gi := range byKey {
			if val := row[gi]; !val.IsTop() {
				fmt.Fprintf(&b, " %s=%s", gs[gi].Key(), v.dom.Format(val))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
