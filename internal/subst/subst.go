// Package subst implements the paper's effectiveness metric: the number
// of constants the analyzer actually substitutes into the program text.
//
// Metzger and Stroud argue this is the right measurement — it "relates
// more directly to code improvement" and "factors out procedure length
// and modularity", because a constant global that a procedure never
// references is known but irrelevant. A use of a scalar variable is
// substituted when the engine proves its value is an integer constant
// at that use, under a given configuration's final entry environments.
//
// Substitution is refused where it would change program semantics:
// assignment targets, READ targets, DO variables, and actual arguments
// that the callee may modify (call-by-reference out-parameters).
package subst

import (
	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/guard"
	"repro/internal/intra"
	"repro/internal/modref"
	"repro/internal/par"
	"repro/internal/sem"
	"repro/internal/ssa"
	"repro/internal/symbolic"
	"strconv"
)

// Options configures a substitution pass.
type Options struct {
	// UseMOD: kill sets at calls come from MOD summaries; otherwise
	// worst-case.
	UseMOD bool
	// UseReturnJFs consults callee return summaries during the re-run.
	UseReturnJFs bool
	// Returns supplies the return summaries when UseReturnJFs is set.
	Returns map[*sem.Procedure]*intra.ReturnSummary
	// FullSubstitution: see intra.Options.
	FullSubstitution bool
	// Gated: see intra.Options.
	Gated bool
	// Prune removes dead code before counting (complete propagation).
	Prune bool
	// Entry provides the final interprocedural entry environment per
	// procedure (nil for a purely intraprocedural count).
	Entry func(p *sem.Procedure) map[ssa.Var]int64
	// Builder is the shared expression interner (one is created when
	// nil).
	Builder *symbolic.Builder
	// Memo, when non-nil, memoizes per-procedure substitution results
	// across Run calls: a Lookup hit skips the procedure's re-analysis;
	// fresh results are offered back via Store. Lookup is called
	// concurrently and must be read-only; Store must be safe for
	// concurrent use. Stored replacement maps must never be mutated.
	Memo Memo
	// Parallelism bounds the worker goroutines counting procedures
	// concurrently: <= 0 selects GOMAXPROCS, 1 is serial. Counts and
	// replacements are identical either way (procedures are independent;
	// workers get private builders and merge in call-graph order).
	Parallelism int
}

// Memo caches per-procedure substitution results across Run calls. See
// Options.Memo.
type Memo interface {
	Lookup(p *sem.Procedure) (count int, repl map[ast.Expr]string, ok bool)
	Store(p *sem.Procedure, count int, repl map[ast.Expr]string)
}

// Result reports what was (or would be) substituted.
type Result struct {
	// PerProc counts substituted uses per procedure.
	PerProc map[*sem.Procedure]int
	// Total is the program-wide count — the number reported in the
	// paper's Tables 2 and 3.
	Total int
	// Replacements maps each substituted use to its constant text,
	// ready for ast.WriteFileSubst.
	Replacements map[ast.Expr]string
}

// Run counts (and records) constant substitutions for the whole
// program under the given configuration, over the SSA forms in forms
// (which must carry the kill assumptions opts.UseMOD selects).
func Run(cg *callgraph.Graph, mod *modref.Info, forms *ssa.Table, opts Options) *Result {
	defer guard.Repanic("subst")
	guard.InjectPanic("subst")
	if opts.Builder == nil {
		opts.Builder = symbolic.NewBuilder()
	}
	res := &Result{
		PerProc:      make(map[*sem.Procedure]int),
		Replacements: make(map[ast.Expr]string),
	}
	workers := par.Workers(opts.Parallelism, len(cg.Order))
	counts := make([]int, len(cg.Order))
	repls := make([]map[ast.Expr]string, len(cg.Order))
	workerBuilders := make([]*symbolic.Builder, len(cg.Order))
	_ = par.ForEach(workers, len(cg.Order), func(i int) error {
		n := cg.Order[i]
		if opts.Memo != nil {
			if count, repl, ok := opts.Memo.Lookup(n.Proc); ok {
				counts[i], repls[i] = count, repl
				return nil
			}
		}
		popts := opts
		if workers > 1 {
			// Private interner per procedure: the hash-consing tables are
			// not goroutine-safe. Replacement keys are this procedure's own
			// AST nodes, so per-procedure maps merge without collisions.
			pb := symbolic.NewBuilder()
			pb.SetMaxSize(opts.Builder.MaxSize())
			popts.Builder = pb
			workerBuilders[i] = pb
		}
		repls[i] = make(map[ast.Expr]string)
		counts[i] = substProcGuarded(cg, mod, forms, i, popts, repls[i])
		if opts.Memo != nil {
			opts.Memo.Store(n.Proc, counts[i], repls[i])
		}
		return nil
	})
	for i, n := range cg.Order {
		if pb := workerBuilders[i]; pb != nil {
			opts.Builder.AddTruncated(pb.Truncated())
		}
		res.PerProc[n.Proc] = counts[i]
		res.Total += counts[i]
		for k, v := range repls[i] {
			res.Replacements[k] = v
		}
	}
	return res
}

// substProcGuarded tags panics with the failing procedure's name.
func substProcGuarded(cg *callgraph.Graph, mod *modref.Info, forms *ssa.Table, i int, opts Options, repl map[ast.Expr]string) int {
	defer guard.Repanic("subst", cg.Order[i].Proc.Name)
	return substProc(cg, mod, forms, i, opts, repl)
}

// substProc counts the substitutions in procedure cg.Order[i].
func substProc(cg *callgraph.Graph, mod *modref.Info, forms *ssa.Table, i int, opts Options, repl map[ast.Expr]string) int {
	n := cg.Order[i]
	fn := forms.Func(i)
	iopts := intra.Options{
		Builder:          opts.Builder,
		OpaqueBase:       int64(i+1) << 32,
		Prune:            opts.Prune,
		FullSubstitution: opts.FullSubstitution,
		Gated:            opts.Gated,
	}
	if opts.Entry != nil {
		iopts.Entry = opts.Entry(n.Proc)
	}
	if opts.UseReturnJFs && opts.Returns != nil {
		iopts.ReturnJF = func(callee string) *intra.ReturnSummary {
			if cn := cg.Nodes[callee]; cn != nil {
				return opts.Returns[cn.Proc]
			}
			return nil
		}
		if opts.UseMOD {
			iopts.GMod = func(callee string, g *sem.GlobalVar) bool {
				cn := cg.Nodes[callee]
				if cn == nil {
					return true
				}
				return mod.GMod(cn.Proc, g)
			}
		}
	}
	r := intra.Analyze(fn, iopts)

	c := &counter{
		proc: n.Proc, cg: cg, mod: mod, fn: fn, res: r,
		useMOD: opts.UseMOD, repl: repl,
	}
	c.walkStmts(n.Proc.Unit.Body)
	return c.count
}

type counter struct {
	proc   *sem.Procedure
	cg     *callgraph.Graph
	mod    *modref.Info
	fn     *ssa.Func
	res    *intra.Result
	useMOD bool
	repl   map[ast.Expr]string
	count  int
}

func (c *counter) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		c.walkStmt(s)
	}
}

func (c *counter) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		// The target is not substitutable, but array subscripts on the
		// left are rvalues.
		if ap, ok := x.Lhs.(*ast.Apply); ok {
			for _, sub := range ap.Args {
				c.visitRvalue(sub)
			}
		}
		c.visitRvalue(x.Rhs)
	case *ast.CallStmt:
		c.visitCallArgs(x.Name, x.Args)
	case *ast.IfStmt:
		c.visitRvalue(x.Cond)
		c.walkStmts(x.Then)
		for _, ei := range x.ElseIfs {
			c.visitRvalue(ei.Cond)
			c.walkStmts(ei.Body)
		}
		c.walkStmts(x.Else)
	case *ast.DoStmt:
		// The DO variable itself is not substitutable; bounds are.
		c.visitRvalue(x.From)
		c.visitRvalue(x.To)
		if x.Step != nil {
			c.visitRvalue(x.Step)
		}
		c.walkStmts(x.Body)
	case *ast.ReadStmt:
		// Targets are written; only array subscripts are rvalues.
		for _, t := range x.Args {
			if ap, ok := t.(*ast.Apply); ok {
				for _, sub := range ap.Args {
					c.visitRvalue(sub)
				}
			}
		}
	case *ast.PrintStmt:
		for _, a := range x.Args {
			c.visitRvalue(a)
		}
	case *ast.ComputedGotoStmt:
		c.visitRvalue(x.Index)
	case *ast.ArithIfStmt:
		c.visitRvalue(x.Expr)
	}
}

// visitRvalue descends an expression counting substitutable constant
// uses of scalar variables.
func (c *counter) visitRvalue(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		c.tryCount(x)
	case *ast.Unary:
		c.visitRvalue(x.X)
	case *ast.Binary:
		c.visitRvalue(x.X)
		c.visitRvalue(x.Y)
	case *ast.Apply:
		switch c.cg.Prog.ApplyKindOf(x) {
		case sem.ApplyCall:
			c.visitCallArgs(x.Name, x.Args)
		default: // array element or intrinsic: arguments are plain rvalues
			for _, a := range x.Args {
				c.visitRvalue(a)
			}
		}
	}
}

// visitCallArgs handles by-reference actuals: a variable actual bound
// to a formal the callee may modify cannot be replaced by a constant.
func (c *counter) visitCallArgs(callee string, args []ast.Expr) {
	calleeNode := c.cg.Nodes[callee]
	for i, a := range args {
		if id, ok := a.(*ast.Ident); ok {
			if s := c.proc.Lookup(id.Name); s != nil && !s.IsArray && s.Kind != sem.SymConst {
				modified := true // worst case
				if c.useMOD && calleeNode != nil {
					modified = c.mod.Mod(calleeNode.Proc, i)
				}
				if modified {
					continue // out-parameter: not substitutable
				}
			}
		}
		c.visitRvalue(a)
	}
}

// tryCount counts one Ident use if its value is a known constant.
func (c *counter) tryCount(id *ast.Ident) {
	s := c.proc.Lookup(id.Name)
	if s == nil || s.IsArray || s.Type != ast.TypeInteger {
		return
	}
	switch s.Kind {
	case sem.SymConst, sem.SymProc:
		// PARAMETER names are already compile-time constants; not an
		// analysis result.
		return
	}
	v := c.fn.UseVal[id]
	if v == nil {
		return
	}
	if blk := c.fn.UseBlock[id]; blk != nil && !c.res.BlockExecutable(blk) {
		return // the use is in dead code (pruned): nothing to substitute
	}
	e := c.res.ExprOf(v)
	if e == nil {
		return // value never computed (unreached)
	}
	if k, ok := e.IsConst(); ok {
		c.count++
		if c.repl != nil {
			txt := strconv.FormatInt(k, 10)
			if k < 0 {
				// `X - -3` is invalid FORTRAN; parenthesize.
				txt = "(" + txt + ")"
			}
			c.repl[id] = txt
		}
	}
}
