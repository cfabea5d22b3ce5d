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
	"math"
	"strconv"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/guard"
	"repro/internal/intra"
	"repro/internal/modref"
	"repro/internal/par"
	"repro/internal/sem"
	"repro/internal/ssa"
	"repro/internal/symbolic"
)

// Options configures a substitution pass.
type Options struct {
	// UseMOD: kill sets at calls come from MOD summaries; otherwise
	// worst-case.
	UseMOD bool
	// UseReturnJFs consults callee return summaries when a procedure is
	// value-numbered.
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
	// Intra supplies the value numbering jump-function construction
	// stored for each procedure (nil, or nil for a procedure, when there
	// is none). It must have run over the procedure's SSA form in forms
	// under these options apart from Entry. A procedure's uses are
	// counted from it unless value-numbering again under Entry could
	// change a counted use (intra.Result.Differs).
	Intra func(p *sem.Procedure) *intra.Result
	// MaxExprSize is the expression-size budget of a procedure that is
	// value-numbered again (0 = unlimited; see symbolic.Builder).
	MaxExprSize int
	// Memo, when non-nil, memoizes per-procedure substitution results
	// across Run calls (see Memo).
	Memo Memo
	// Parallelism bounds the worker goroutines counting procedures
	// concurrently: <= 0 selects GOMAXPROCS, 1 is serial. Counts and
	// replacements are identical either way: procedures are independent,
	// each re-run interns into a builder of its own, and per-procedure
	// results merge in call-graph order.
	Parallelism int
}

// Memo caches per-procedure substitution decisions across Run calls.
// Lookup returns p's decision from an earlier run and whether it holds
// for this run; a decision that holds stands in for counting p. Lookup
// is called concurrently and must be read-only. Run then calls Store,
// serially, with every decision it made. Decisions are never mutated
// once made, so results share them.
type Memo interface {
	Lookup(p *sem.Procedure) (d Decision, ok bool)
	Store(p *sem.Procedure, d Decision)
}

// Decision is one procedure's substitutions: how many uses it
// substitutes, and each use's constant text.
type Decision struct {
	Count int
	Repl  map[ast.Expr]string
}

// Result reports what was (or would be) substituted.
type Result struct {
	// Procs lists the program's procedures in call-graph order, and
	// Decisions each one's substitutions, index for index.
	Procs     []*sem.Procedure
	Decisions []Decision
	// Total is the program-wide count — the number reported in the
	// paper's Tables 2 and 3.
	Total int
	// Reanalyzed is how many procedures were value-numbered again,
	// rather than counted from Options.Intra or answered by Options.Memo.
	Reanalyzed int
}

// Replacements maps each substituted use to its constant text, ready
// for ast.WriteFileSubst.
func (r *Result) Replacements() map[ast.Expr]string {
	out := make(map[ast.Expr]string, r.Total)
	for _, d := range r.Decisions {
		for k, v := range d.Repl {
			out[k] = v
		}
	}
	return out
}

// Run counts (and records) constant substitutions for the whole
// program under the given configuration, over the SSA forms in forms
// (which must carry the kill assumptions opts.UseMOD selects). A
// procedure the memo answers shares its decision with the run that
// made it.
func Run(cg *callgraph.Graph, mod *modref.Info, forms *ssa.Table, opts Options) *Result {
	defer guard.Repanic("subst")
	guard.InjectPanic("subst")
	n := len(cg.Order)
	res := &Result{Procs: make([]*sem.Procedure, n), Decisions: make([]Decision, n)}
	fresh := make([]bool, n)
	reran := make([]bool, n)
	_ = par.ForEach(par.Workers(opts.Parallelism, n), n, func(i int) error {
		p := cg.Order[i].Proc
		res.Procs[i] = p
		if opts.Memo != nil {
			if d, ok := opts.Memo.Lookup(p); ok {
				res.Decisions[i] = d
				return nil
			}
		}
		d := Decision{Repl: make(map[ast.Expr]string)}
		d.Count, reran[i] = substProcGuarded(cg, mod, forms, i, opts, d.Repl)
		res.Decisions[i], fresh[i] = d, true
		return nil
	})
	for i, d := range res.Decisions {
		res.Total += d.Count
		if reran[i] {
			res.Reanalyzed++
		}
		if fresh[i] && opts.Memo != nil {
			opts.Memo.Store(res.Procs[i], d)
		}
	}
	return res
}

// substProcGuarded tags panics with the failing procedure's name.
func substProcGuarded(cg *callgraph.Graph, mod *modref.Info, forms *ssa.Table, i int, opts Options, repl map[ast.Expr]string) (int, bool) {
	defer guard.Repanic("subst", cg.Order[i].Proc.Name)
	return substProc(cg, mod, forms, i, opts, repl)
}

// substProc counts the substitutions in procedure cg.Order[i], reporting
// whether it had to value-number the procedure again.
func substProc(cg *callgraph.Graph, mod *modref.Info, forms *ssa.Table, i int, opts Options, repl map[ast.Expr]string) (count int, reanalyzed bool) {
	n := cg.Order[i]
	iopts := intra.Options{
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
	body := n.Proc.Unit.Body
	if opts.Intra != nil {
		if r := opts.Intra(n.Proc); r != nil {
			// Every use examined is a distinct expression node of the unit.
			uses := make([]*ssa.Value, 0, n.Proc.Unit.NumExprs)
			c := &counter{proc: n.Proc, cg: cg, mod: mod, res: r, useMOD: opts.UseMOD, repl: repl, uses: uses}
			c.walkStmts(body)
			if !r.Differs(iopts, c.uses) {
				return c.count, false
			}
			clear(repl)
		}
	}
	// Each re-run interns into a builder of its own: workers run
	// concurrently, and jump construction's builders hold expressions
	// that cached jump functions share with other analyses.
	fn := forms.Func(i)
	iopts.Builder = symbolic.NewSizedBuilder(len(fn.Values))
	iopts.Builder.SetMaxSize(opts.MaxExprSize)
	c := &counter{
		proc: n.Proc, cg: cg, mod: mod, res: intra.Analyze(fn, iopts),
		useMOD: opts.UseMOD, repl: repl,
	}
	c.walkStmts(body)
	return c.count, true
}

type counter struct {
	proc   *sem.Procedure
	cg     *callgraph.Graph
	mod    *modref.Info
	res    *intra.Result
	useMOD bool
	repl   map[ast.Expr]string
	count  int
	// uses, when non-nil, collects the value of every use examined in
	// executable code, for intra.Result.Differs.
	uses []*ssa.Value
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
		switch c.proc.ApplyKindOf(x) {
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
	fn := c.res.F
	v := fn.UseVal(id)
	if v == nil {
		return
	}
	if blk := fn.UseBlock(id); blk != nil && !c.res.BlockExecutable(blk) {
		return // the use is in dead code (pruned): nothing to substitute
	}
	if c.uses != nil {
		c.uses = append(c.uses, v)
	}
	e := c.res.ExprOf(v)
	if e == nil {
		return // value never computed (unreached)
	}
	if k, ok := e.IsConst(); ok {
		c.count++
		if c.repl != nil {
			txt := strconv.FormatInt(k, 10)
			switch {
			case k == math.MinInt64:
				// Its magnitude is out of range as a literal.
				txt = "(-9223372036854775807 - 1)"
			case k < 0:
				// `X - -3` is invalid FORTRAN; parenthesize.
				txt = "(" + txt + ")"
			}
			c.repl[id] = txt
		}
	}
}
