// Package jump constructs jump functions (paper §3).
//
// Forward jump functions: for call site s and callee formal (or global)
// y, J_s^y approximates y's value on entry to the callee as a function
// of the caller's entry values. Four implementations are provided, in
// increasing order of power and cost:
//
//	Literal          — y's actual is a literal constant at s
//	Intraprocedural  — gcp(y, s): intraprocedural constant propagation /
//	                   value numbering (with MOD info) proves y constant
//	Pass-through     — additionally, y's actual is an unmodified formal
//	                   of the caller (so constants flow along paths of
//	                   length > 1 in the call graph)
//	Polynomial       — y's actual is any polynomial of the caller's
//	                   entry values
//
// Return jump functions: for each formal/global x modified by p (and
// the function result), R_p^x approximates x's value on return from p.
// A single polynomial implementation is provided, built bottom-up over
// the call graph as in §3.2; procedures in recursive SCCs are
// summarized conservatively (no return jump functions).
//
// All four forward kinds are derived by *restricting* the symbolic
// expression the value-numbering engine (package intra) computes for
// each actual — mirroring the paper's implementation note that "the
// appropriate function is constructed from the information produced by
// value numbering".
package jump

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/guard"
	"repro/internal/intra"
	"repro/internal/modref"
	"repro/internal/par"
	"repro/internal/sem"
	"repro/internal/ssa"
	"repro/internal/symbolic"
)

// Kind selects a forward jump function implementation.
type Kind int

const (
	Literal Kind = iota
	Intraprocedural
	PassThrough
	Polynomial
)

func (k Kind) String() string {
	switch k {
	case Literal:
		return "literal"
	case Intraprocedural:
		return "intraprocedural"
	case PassThrough:
		return "pass-through"
	default:
		return "polynomial"
	}
}

// Config selects the analysis variant (the experimental axes of the
// paper's Tables 2 and 3).
type Config struct {
	Kind Kind
	// UseMOD uses interprocedural MOD information at call sites; when
	// false, worst-case kill assumptions apply (Table 3, column 1).
	UseMOD bool
	// UseReturnJFs builds and applies return jump functions (Table 2's
	// first four columns vs last two).
	UseReturnJFs bool
	// FullSubstitution lifts the paper's only-constants limitation on
	// return jump function results (an extension; off reproduces the
	// paper).
	FullSubstitution bool
	// Prune enables branch pruning during jump function construction;
	// used by the complete-propagation loop after dead code is found.
	Prune bool
	// Gated builds γ expressions at joins (gated-SSA jump functions, the
	// paper's §4.2 suggestion — an extension that subsumes complete
	// propagation without iterating). Meaningful with Kind Polynomial.
	Gated bool
	// Check, when non-nil, is consulted between procedures during
	// construction; a non-nil return (typically *guard.Exhausted) aborts
	// Build with that error so the driver can degrade the configuration.
	Check func() error
	// Memo, when non-nil, memoizes per-procedure build products across
	// Build calls: a Lookup hit supplies a procedure's return summary
	// and site functions (already expressed in this build's builder),
	// skipping its SSA/value-numbering analysis; freshly built products
	// are offered back via Store. Lookup is called concurrently and must
	// be read-only; Store must be safe for concurrent use. A non-nil
	// Memo forces per-procedure expression builders even serially, so
	// truncation counts stay attributable per procedure.
	Memo Memo
	// Parallelism bounds the worker goroutines that analyze procedures
	// concurrently: <= 0 selects one worker per CPU (GOMAXPROCS), 1 runs
	// the serial pipeline. Results are bit-identical to the serial run:
	// workers get private expression builders (the hash-consing tables
	// are not goroutine-safe) and are merged in call-graph order.
	Parallelism int
}

// DefaultConfig is the paper's recommended configuration: pass-through
// jump functions with MOD information and return jump functions.
func DefaultConfig() Config {
	return Config{Kind: PassThrough, UseMOD: true, UseReturnJFs: true}
}

// SiteFunctions holds the forward jump functions of one call site:
// one per callee formal position and one per program global. A nil
// entry is ⊥ (the jump function that always evaluates to ⊥).
type SiteFunctions struct {
	Site    *cfg.CallSite
	Callee  *sem.Procedure
	Formals []*symbolic.Expr
	Globals map[*sem.GlobalVar]*symbolic.Expr
	// Dead marks sites proven unreachable (branch pruning): they
	// contribute nothing to the callee's VAL set rather than ⊥.
	Dead bool
}

// ProcFunctions bundles everything computed for one procedure. Intra
// (nil for a memoized procedure) is its value numbering; Intra.F is
// its SSA form.
type ProcFunctions struct {
	Proc  *sem.Procedure
	Intra *intra.Result
	Sites []*SiteFunctions
}

// Functions is the program-wide result of jump function construction.
type Functions struct {
	Config  Config
	Graph   *callgraph.Graph
	Mod     *modref.Info
	Builder *symbolic.Builder
	// Returns maps each procedure to its return jump functions (absent
	// or nil for recursive procedures and when UseReturnJFs is off).
	Returns map[*sem.Procedure]*intra.ReturnSummary
	// Procs maps each procedure to its forward jump functions.
	Procs map[*sem.Procedure]*ProcFunctions
}

// EntryEnv provides known constant entry values per procedure for
// rebuild rounds of complete propagation; nil means no knowledge.
type EntryEnv func(p *sem.Procedure) map[ssa.Var]int64

// Memo caches per-procedure build products across Build calls. See
// Config.Memo.
type Memo interface {
	Lookup(p *sem.Procedure) *ProcMemo
	Store(p *sem.Procedure, m *ProcMemo)
}

// ProcMemo is one procedure's memoizable build product.
type ProcMemo struct {
	// Summary is the return jump-function summary; nil for recursive
	// procedures and when return jump functions are off.
	Summary *intra.ReturnSummary
	// Sites are the procedure's forward jump functions, aligned with its
	// CFG call sites (program-procedure callees only, in CFG order).
	Sites []*SiteFunctions
	// Truncated is how many expressions the procedure's analysis
	// truncated to ⊥ under the size budget (needed to reproduce the
	// driver's truncation warning exactly).
	Truncated int
}

// Build constructs return and forward jump functions for the whole
// program, in the paper's phase order: return jump functions bottom-up,
// then forward jump functions. Each procedure is value-numbered once,
// over its form in forms (which must carry the kill assumptions
// cfgr.UseMOD selects): the bottom-up pass stores every result, and the
// forward jump functions are read off the stored results. It returns an
// error only when cfgr.Check reports budget exhaustion or ctx is
// cancelled (both surface as *guard.Exhausted so the driver can degrade
// the configuration); internal panics are re-raised tagged with the
// phase and the procedure being analyzed. Worker pools observe ctx
// between procedures, so a cancelled build stops claiming work instead
// of analyzing the whole program. A nil ctx never cancels.
func Build(ctx context.Context, cg *callgraph.Graph, mod *modref.Info, forms *ssa.Table, b *symbolic.Builder, cfgr Config, entry EntryEnv) (*Functions, error) {
	defer guard.Repanic("jump")
	guard.InjectPanic("jump")
	if b == nil {
		b = symbolic.NewBuilder()
	}
	fns := &Functions{
		Config:  cfgr,
		Graph:   cg,
		Mod:     mod,
		Builder: b,
		Returns: make(map[*sem.Procedure]*intra.ReturnSummary),
		Procs:   make(map[*sem.Procedure]*ProcFunctions),
	}
	builder := &fnBuilder{
		fns:      fns,
		ctx:      ctx,
		entry:    entry,
		forms:    forms,
		workers:  par.Workers(cfgr.Parallelism, len(cg.Order)),
		orderIdx: make(map[*sem.Procedure]int, len(cg.Order)),
		results:  make([]*intra.Result, len(cg.Order)),
	}
	for i, n := range cg.Order {
		builder.orderIdx[n.Proc] = i
	}
	if builder.workers > 1 || cfgr.Memo != nil {
		builder.procBuilders = make([]*symbolic.Builder, len(cg.Order))
		for i := range builder.procBuilders {
			pb := symbolic.NewBuilder()
			pb.SetMaxSize(b.MaxSize())
			builder.procBuilders[i] = pb
		}
		// Every worker builder is private until the final merge below, so
		// the truncation sum observes quiescent counters.
		defer func() {
			for _, pb := range builder.procBuilders {
				b.AddTruncated(pb.Truncated())
			}
		}()
	}
	if err := builder.analyze(); err != nil {
		return nil, err
	}
	if err := builder.buildForwards(); err != nil {
		return nil, err
	}
	return fns, nil
}

// check consults the configured budget hook between procedures.
func (fb *fnBuilder) check() error {
	if fb.fns.Config.Check == nil {
		return nil
	}
	return fb.fns.Config.Check()
}

// forEach fans fn out over the build's worker pool under its context,
// normalizing a raw context error (the pool stopped claiming tasks)
// into the same *guard.Exhausted a task-level deadline check produces,
// so the degradation driver sees one error shape either way.
func (fb *fnBuilder) forEach(count int, fn func(i int) error) error {
	err := par.ForEachCtx(fb.ctx, fb.workers, count, fn)
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &guard.Exhausted{Axis: guard.AxisDeadline, Cause: err, Site: "jump"}
	}
	return err
}

type fnBuilder struct {
	fns      *Functions
	ctx      context.Context
	entry    EntryEnv
	forms    *ssa.Table
	workers  int
	orderIdx map[*sem.Procedure]int
	// results holds each procedure's value numbering, indexed like
	// Graph.Order (nil for memoized procedures).
	results []*intra.Result
	// procBuilders (parallel mode only) gives each procedure a private
	// expression builder: the hash-consing tables are not goroutine-safe,
	// and expressions cross builders only through Substitute, which
	// re-interns. Serial mode keeps the single shared builder.
	procBuilders []*symbolic.Builder
}

// memoHit returns the memoized build product for p, if any. The memo's
// hit set is frozen before Build starts, so this is safe from workers.
func (fb *fnBuilder) memoHit(p *sem.Procedure) *ProcMemo {
	if m := fb.fns.Config.Memo; m != nil {
		return m.Lookup(p)
	}
	return nil
}

// builderFor returns the expression builder procedure i's analysis must
// use: its private one in parallel mode, the shared one serially.
func (fb *fnBuilder) builderFor(i int) *symbolic.Builder {
	if fb.procBuilders != nil {
		return fb.procBuilders[i]
	}
	return fb.fns.Builder
}

// analyzeProc value-numbers procedure n under the current
// configuration and the return summaries installed so far.
func (fb *fnBuilder) analyzeProc(n *callgraph.Node) *intra.Result {
	defer guard.Repanic("jump", n.Proc.Name)
	cfgr := fb.fns.Config
	i := fb.orderIdx[n.Proc]
	b := fb.builderFor(i)
	iopts := intra.Options{
		Builder:          b,
		OpaqueBase:       int64(i+1) << 32,
		Prune:            cfgr.Prune,
		FullSubstitution: cfgr.FullSubstitution,
		Gated:            cfgr.Gated,
	}
	if fb.entry != nil {
		iopts.Entry = fb.entry(n.Proc)
	}
	if cfgr.UseReturnJFs {
		iopts.ReturnJF = func(callee string) *intra.ReturnSummary {
			if cn := fb.fns.Graph.Nodes[callee]; cn != nil {
				return fb.fns.Returns[cn.Proc]
			}
			return nil
		}
		if cfgr.UseMOD {
			iopts.GMod = func(callee string, g *sem.GlobalVar) bool {
				cn := fb.fns.Graph.Nodes[callee]
				if cn == nil {
					return true
				}
				return fb.fns.Mod.GMod(cn.Proc, g)
			}
		}
	}
	before := b.Truncated()
	res := intra.Analyze(fb.forms.Func(i), iopts)
	if cfgr.UseReturnJFs && !n.Recursive {
		// The expression-size warning and ProcMemo.Truncated count a
		// non-recursive procedure's truncations twice when return jump
		// functions are on: they were defined when such a procedure was
		// value-numbered once for its return summary and again for its
		// forward jump functions, and both are observable outputs that
		// must not change. Credit this run's truncations a second time.
		b.AddTruncated(b.Truncated() - before)
	}
	return res
}

// analyze value-numbers every procedure once, walking the call graph
// bottom-up (paper §4.1, first phase), and installs a ReturnSummary per
// non-recursive procedure when return jump functions are on.
//
// The bottom-up order relaxes to level scheduling: level(p) = 1 + max
// level of p's callees in other SCCs, so the nodes of one level have no
// summary dependence on each other and can be analyzed concurrently.
// Summaries are installed serially at each level barrier, so a worker
// only ever reads a quiescent Returns map. A recursive procedure sees
// the summaries of every callee outside its SCC, exactly as a pass
// after the bottom-up one would, and none inside it. Without return
// jump functions nothing depends on anything, so every procedure is on
// level 0.
func (fb *fnBuilder) analyze() error {
	order := fb.fns.Graph.BottomUp()
	useReturns := fb.fns.Config.UseReturnJFs
	// Memoized summaries depend on nothing built this call (their
	// callee closures are part of the memo key), so install them all up
	// front, where a fresh build would have put them before any caller.
	for _, n := range order {
		if m := fb.memoHit(n.Proc); m != nil && m.Summary != nil {
			fb.fns.Returns[n.Proc] = m.Summary
		}
	}

	// BottomUp order lists callees before callers (for nodes in distinct
	// SCCs), so one forward sweep computes every level.
	level := make(map[*callgraph.Node]int, len(order))
	var levels [][]*callgraph.Node
	for _, n := range order {
		lv := 0
		if useReturns {
			for _, site := range n.Out {
				m := fb.fns.Graph.Nodes[site.Callee]
				if m == nil || m.SCC == n.SCC {
					continue
				}
				if l := level[m] + 1; l > lv {
					lv = l
				}
			}
		}
		level[n] = lv
		for len(levels) <= lv {
			levels = append(levels, nil)
		}
		if fb.memoHit(n.Proc) == nil {
			levels[lv] = append(levels[lv], n)
		}
	}
	for _, batch := range levels {
		err := fb.forEach(len(batch), func(i int) error {
			if err := fb.check(); err != nil {
				return err
			}
			n := batch[i]
			fb.results[fb.orderIdx[n.Proc]] = fb.analyzeProc(n)
			return nil
		})
		if err != nil {
			return err
		}
		for _, n := range batch {
			if useReturns && !n.Recursive {
				fb.fns.Returns[n.Proc] = fb.summarize(n, fb.results[fb.orderIdx[n.Proc]])
			}
		}
	}
	return nil
}

// summarize extracts the return jump functions from one procedure's
// exit state.
func (fb *fnBuilder) summarize(n *callgraph.Node, res *intra.Result) *intra.ReturnSummary {
	fn := res.F
	sum := &intra.ReturnSummary{
		Proc:    n.Proc,
		Formals: make(map[int]*symbolic.Expr),
		Globals: make(map[*sem.GlobalVar]*symbolic.Expr),
	}
	for i, f := range n.Proc.Formals {
		if f.IsArray || f.Type != ast.TypeInteger {
			continue
		}
		if e := usableExit(res, fn.ExitVals[ssa.VarOf(f)]); e != nil {
			sum.Formals[i] = e
		}
	}
	for _, g := range fb.fns.Graph.Prog.Globals() {
		if g.IsArray || g.Type != ast.TypeInteger {
			continue
		}
		if e := usableExit(res, fn.ExitVals[ssa.GlobalVar(g)]); e != nil {
			sum.Globals[g] = e
		}
	}
	if r := n.Proc.Result; r != nil {
		sum.Result = usableExit(res, fn.ExitVals[ssa.VarOf(r)])
	}
	return sum
}

// usableExit filters an exit expression down to a valid return jump
// function: transparent (no opaque parts) and integer-valued.
func usableExit(res *intra.Result, v *ssa.Value) *symbolic.Expr {
	if v == nil {
		return nil
	}
	e := res.ExprOf(v)
	if e == nil || e.HasOpaque() {
		return nil
	}
	if _, isBool := e.IsBool(); isBool {
		return nil
	}
	return e
}

// buildForwards reads the per-site forward jump functions off the
// stored value numberings (paper §4.1, second phase; a top-down pass,
// though with the results fixed the order no longer matters — which is
// also what lets the pass fan out).
func (fb *fnBuilder) buildForwards() error {
	order := fb.fns.Graph.TopDown()
	pfs := make([]*ProcFunctions, len(order))
	err := fb.forEach(len(order), func(k int) error {
		n := order[k]
		i := fb.orderIdx[n.Proc]
		if m := fb.memoHit(n.Proc); m != nil {
			// Reuse the memoized product wholesale. The truncation the
			// original analysis observed is credited to this procedure's
			// builder so the driver's warning reproduces exactly.
			pfs[k] = &ProcFunctions{Proc: n.Proc, Sites: m.Sites}
			fb.builderFor(i).AddTruncated(m.Truncated)
			return nil
		}
		res := fb.results[i]
		pf := &ProcFunctions{Proc: n.Proc, Intra: res}
		for _, site := range res.F.Graph.Sites {
			calleeNode := fb.fns.Graph.Nodes[site.Callee]
			if calleeNode == nil {
				continue
			}
			pf.Sites = append(pf.Sites, fb.siteFunctions(res, site, calleeNode.Proc))
		}
		pfs[k] = pf
		if memo := fb.fns.Config.Memo; memo != nil {
			// The procedure's analysis used its private builder, so its
			// truncation counter is exactly this procedure's share.
			memo.Store(n.Proc, &ProcMemo{
				Summary:   fb.fns.Returns[n.Proc],
				Sites:     pf.Sites,
				Truncated: fb.builderFor(i).Truncated(),
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, n := range order {
		fb.fns.Procs[n.Proc] = pfs[i]
	}
	return nil
}

func (fb *fnBuilder) siteFunctions(res *intra.Result, site *cfg.CallSite, callee *sem.Procedure) *SiteFunctions {
	sf := &SiteFunctions{
		Site:    site,
		Callee:  callee,
		Formals: make([]*symbolic.Expr, len(callee.Formals)),
		Globals: make(map[*sem.GlobalVar]*symbolic.Expr),
	}
	if site.Block != nil && !res.BlockExecutable(site.Block) {
		sf.Dead = true
		return sf
	}
	info := res.F.Calls[site]
	kind := fb.fns.Config.Kind
	for i, formal := range callee.Formals {
		if i >= len(site.Args) {
			break
		}
		// Only integer parameters are propagated (paper §4: "the
		// implementation only propagates integer constants").
		if formal.Type != ast.TypeInteger || formal.IsArray {
			continue
		}
		var raw *symbolic.Expr
		if info != nil && i < len(info.ArgVals) && info.ArgVals[i] != nil {
			raw = res.ExprOf(info.ArgVals[i])
		}
		sf.Formals[i] = restrict(kind, raw, site.Args[i])
	}
	// Globals are "implicit actuals": their value at the site is the
	// jump function for the corresponding entry global of the callee.
	// The literal kind misses them entirely (§3.1.1: "this jump function
	// misses any constant globals which are passed implicitly").
	if kind != Literal && info != nil {
		for g, v := range info.GlobalVals {
			if g.Type != ast.TypeInteger || g.IsArray {
				continue
			}
			if e := restrict(kind, res.ExprOf(v), nil); e != nil {
				sf.Globals[g] = e
			}
		}
	}
	return sf
}

// restrict derives the kind-specific jump function from the full
// symbolic expression of an actual (nil = ⊥).
func restrict(kind Kind, raw *symbolic.Expr, actual ast.Expr) *symbolic.Expr {
	switch kind {
	case Literal:
		// Textual scan of the call site: a literal (possibly negated)
		// integer constant. Independent of the engine's expression.
		if raw == nil {
			return nil
		}
		switch a := actual.(type) {
		case *ast.IntLit:
			return raw // raw is the same constant
		case *ast.Unary:
			if a.Op == ast.OpNeg {
				if _, ok := a.X.(*ast.IntLit); ok {
					return raw
				}
			}
		}
		return nil
	case Intraprocedural:
		if raw == nil {
			return nil
		}
		if _, ok := raw.IsConst(); ok {
			return raw
		}
		return nil
	case PassThrough:
		if raw == nil {
			return nil
		}
		if _, ok := raw.IsConst(); ok {
			return raw
		}
		if raw.Op == symbolic.OpParam || raw.Op == symbolic.OpGlobal {
			return raw
		}
		return nil
	default: // Polynomial
		if raw == nil || raw.HasOpaque() {
			return nil
		}
		if _, isBool := raw.IsBool(); isBool {
			return nil
		}
		return raw
	}
}

// String renders the jump functions of a site for debugging.
func (sf *SiteFunctions) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "site %s:", sf.Site)
	for i, e := range sf.Formals {
		name := sf.Callee.Formals[i].Name
		if e == nil {
			fmt.Fprintf(&b, " %s=⊥", name)
		} else {
			fmt.Fprintf(&b, " %s=%s", name, e)
		}
	}
	var keys []string
	for g := range sf.Globals {
		keys = append(keys, g.Key())
	}
	sort.Strings(keys)
	for _, k := range keys {
		for g, e := range sf.Globals {
			if g.Key() == k {
				fmt.Fprintf(&b, " %s=%s", k, e)
			}
		}
	}
	return b.String()
}
