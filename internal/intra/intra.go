// Package intra is the intraprocedural analysis engine: a symbolic,
// SCCP-style evaluation over a procedure's SSA graph.
//
// Every SSA value is assigned a symbolic expression (package symbolic)
// over the procedure's entry values. Because expressions are interned,
// this assignment is exactly a global value numbering: two values with
// the same expression are congruent. The paper's analyzer was built the
// same way ("we built a set of jump functions on top of an existing
// framework for global value numbering").
//
// The engine serves every phase of the interprocedural analysis:
//
//   - jump-function construction runs it with formals/globals as
//     symbolic atoms and reads off call-site expressions (gcp, §3.1);
//   - return-jump-function construction reads off exit expressions;
//   - the substitution pass counts constant uses from jump
//     construction's run, and re-runs the engine with the final
//     CONSTANTS values bound to the entry atoms only for a procedure
//     where that binding could change a counted use (Result.Differs);
//   - dead-code elimination uses its block-executability facts.
package intra

import (
	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/sem"
	"repro/internal/ssa"
	"repro/internal/symbolic"
)

// ReturnSummary is a procedure's set of return jump functions: the
// symbolic value of each modified formal, each modified global, and the
// function result at procedure exit, expressed over the procedure's own
// entry values. A nil map entry means "no jump function" (the value is
// unknown on return).
type ReturnSummary struct {
	Proc *sem.Procedure
	// Formals maps formal index → exit expression.
	Formals map[int]*symbolic.Expr
	// Globals maps program global → exit expression.
	Globals map[*sem.GlobalVar]*symbolic.Expr
	// Result is the function-result expression (functions only).
	Result *symbolic.Expr
}

// Options configures one run of the engine.
type Options struct {
	// Builder is the program-wide expression interner.
	Builder *symbolic.Builder
	// OpaqueBase offsets opaque identities so different procedures'
	// unknowns never collide in the shared Builder.
	OpaqueBase int64
	// Entry gives known constant entry values (from interprocedural
	// propagation). Variables not present stay symbolic atoms.
	Entry map[ssa.Var]int64
	// Prune enables SCCP branch pruning: blocks whose conditions fold
	// are not considered executable on the dead side. The paper's plain
	// propagation does not prune (value numbering alone); the "complete
	// propagation" of Table 3 does, via explicit dead-code elimination.
	Prune bool
	// ReturnJF supplies return jump functions for callees (nil, or a
	// function returning nil, disables them).
	ReturnJF func(callee string) *ReturnSummary
	// GMod reports whether a callee may modify a global directly (its
	// GMOD set). It guards an aliasing hazard: when a COMMON global is
	// passed as an actual, the callee's formal aliases the global, and
	// the formal's return jump function only describes writes through
	// the formal. nil means "unknown": assume it may (conservative).
	GMod func(callee string, g *sem.GlobalVar) bool
	// FullSubstitution keeps symbolic (non-constant) results of return
	// jump function substitution. The paper's implementation sets any
	// non-constant result to ⊥ ("return jump functions that depend on
	// parameters to the calling procedure can never be evaluated as
	// constant"); this option lifts that limitation (an extension).
	FullSubstitution bool
	// Gated builds γ (gated-SSA) expressions at two-way joins whose
	// controlling predicate is transparent, instead of going opaque.
	// This realizes the paper's §4.2 remark that a jump-function
	// generator based on gated single-assignment form would produce the
	// complete-propagation results without iterating.
	Gated bool
}

// Result holds the engine's findings for one procedure.
type Result struct {
	F     *ssa.Func
	Opts  Options
	exprs []*symbolic.Expr // indexed by value ID; nil = ⊤ (never executed)
	// execBlock and execEdge are dense executability sets indexed by
	// block ID (block IDs are dense after CFG assembly). A block has at
	// most two successors, so edge (blk, idx) lives at 2*blk.ID + idx.
	execBlock []bool
	execEdge  []bool
}

// ExprOf returns the symbolic expression of an SSA value (nil if the
// value was never reached — dead code).
func (r *Result) ExprOf(v *ssa.Value) *symbolic.Expr {
	if v == nil {
		return nil
	}
	return r.exprs[v.ID]
}

// ConstOf reports whether the value is a known integer constant.
func (r *Result) ConstOf(v *ssa.Value) (int64, bool) {
	e := r.ExprOf(v)
	if e == nil {
		return 0, false
	}
	return e.IsConst()
}

// BlockExecutable reports whether the block is reachable under the
// analyzed entry environment.
func (r *Result) BlockExecutable(blk *cfg.Block) bool {
	return blk.ID < len(r.execBlock) && r.execBlock[blk.ID]
}

// EdgeExecutable reports whether control can flow along the given
// successor edge under the analyzed entry environment.
func (r *Result) EdgeExecutable(from *cfg.Block, succIdx int) bool {
	i := 2*from.ID + succIdx
	return succIdx < 2 && i < len(r.execEdge) && r.execEdge[i]
}

// Differs reports whether a run of the engine over r.F under opts could
// give any of uses a different expression than r did. opts must agree
// with r.Opts apart from Entry and Builder, and its ReturnJF and GMod
// must answer as r's did; any other disagreement reports true.
//
// Only entry values whose binding changed can make the runs differ.
// Without Prune and Gated, executability ignores branch values and every
// value is computed from its SSA operands (phi operands included), and a
// call's results and post-call values from the site's actuals and
// globals. A value outside the forward dependence cone of the rebound
// entry values therefore takes the same expression in both runs, because
// its inputs are evaluated in the same order with the same history.
// Differs walks that dependence backward from uses. Under Prune or Gated,
// branch values decide executability and γ selection, so any rebound
// entry value reports true.
func (r *Result) Differs(opts Options, uses []*ssa.Value) bool {
	o := r.Opts
	if opts.OpaqueBase != o.OpaqueBase || opts.Prune != o.Prune || opts.Gated != o.Gated ||
		opts.FullSubstitution != o.FullSubstitution ||
		(opts.ReturnJF == nil) != (o.ReturnJF == nil) || (opts.GMod == nil) != (o.GMod == nil) {
		return true
	}
	rebound := func(v ssa.Var) bool {
		c, ok := opts.Entry[v]
		c0, ok0 := o.Entry[v]
		return ok != ok0 || c != c0
	}
	anyRebound := false
	for v := range opts.Entry {
		anyRebound = anyRebound || rebound(v)
	}
	for v := range o.Entry {
		anyRebound = anyRebound || rebound(v)
	}
	if !anyRebound {
		return false
	}
	if opts.Prune || opts.Gated {
		return true
	}
	f := r.F
	seen := make([]bool, len(f.Values))
	var sites []bool         // by CallSite.ID
	var stack [32]*ssa.Value // the walk grows onto the heap only when deep
	work := stack[:0]
	for _, u := range uses {
		work = append(work[:0], u)
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			if v == nil || seen[v.ID] {
				continue
			}
			seen[v.ID] = true
			switch v.Op {
			case ssa.OpParam, ssa.OpGlobalIn:
				if rebound(v.AuxVar) {
					return true
				}
			case ssa.OpPhi, ssa.OpArith, ssa.OpIntrinsic:
				work = append(work, v.Args...)
			case ssa.OpCallRes, ssa.OpPostCall:
				// Without return jump functions call effects are opaque.
				if o.ReturnJF == nil {
					continue
				}
				if sites == nil {
					sites = make([]bool, len(f.Graph.Sites))
				}
				if s := v.AuxSite; !sites[s.ID] {
					sites[s.ID] = true
					if info := f.Call(s); info != nil {
						work = append(work, info.ArgVals...)
						work = append(work, info.GlobalVals()...)
					}
				}
			}
		}
	}
	return false
}

// Analyze runs the engine to fixpoint.
func Analyze(f *ssa.Func, opts Options) *Result {
	if opts.Builder == nil {
		opts.Builder = symbolic.NewBuilder()
	}
	n := len(f.Graph.Blocks)
	r := &Result{
		F:         f,
		Opts:      opts,
		exprs:     make([]*symbolic.Expr, len(f.Values)),
		execBlock: make([]bool, n),
		execEdge:  make([]bool, 2*n),
	}
	e := &engine{r: r, f: f, b: opts.Builder, opts: opts}
	e.run()
	return r
}

type engine struct {
	r    *Result
	f    *ssa.Func
	b    *symbolic.Builder
	opts Options
	// argScratch is reused for intrinsic argument vectors; Intrinsic
	// folds its arguments pairwise and never retains the slice.
	argScratch []*symbolic.Expr
}

// opaque returns the canonical unknown for an SSA value.
func (e *engine) opaque(v *ssa.Value) *symbolic.Expr {
	return e.b.Opaque(e.opts.OpaqueBase + int64(v.ID))
}

func (e *engine) run() {
	r := e.r
	r.execBlock[e.f.Graph.Entry.ID] = true
	// Source values (no dependencies) are fixed up front; everything
	// else is computed during the fixpoint iteration. Without this,
	// never-referenced entry values (e.g. an unused formal flowing to
	// the exit) would stay ⊤.
	for _, v := range e.f.Values {
		switch v.Op {
		case ssa.OpConst:
			r.exprs[v.ID] = e.b.Const(v.AuxInt)
		case ssa.OpBoolConst:
			r.exprs[v.ID] = e.b.Bool(v.AuxBool)
		case ssa.OpParam, ssa.OpGlobalIn:
			r.exprs[v.ID] = e.entryLeaf(v.AuxVar)
		case ssa.OpRealConst, ssa.OpStr, ssa.OpArrayLoad, ssa.OpRead, ssa.OpUndef, ssa.OpCast:
			// Casts are always opaque: they only arise on int↔real
			// conversions, and REAL values are outside the propagated
			// domain.
			r.exprs[v.ID] = e.opaque(v)
		}
		// Only INTEGER and LOGICAL values participate; REAL-typed values
		// are opaque so integer folding never touches real arithmetic.
		if r.exprs[v.ID] != nil && v.Type == ast.TypeReal {
			r.exprs[v.ID] = e.opaque(v)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range e.f.Dom.RPO {
			if !r.execBlock[blk.ID] {
				continue
			}
			// Phis first (they are defined at block entry).
			for _, phi := range e.f.Phis(blk) {
				if e.update(phi, e.evalPhi(phi)) {
					changed = true
				}
			}
			for _, in := range blk.Instrs {
				if e.evalInstr(blk, in) {
					changed = true
				}
			}
			if e.propagateEdges(blk) {
				changed = true
			}
		}
	}
}

// update installs a (monotone) new expression for a value. Once a value
// holds expression x, any different recomputed expression lowers it to
// its opaque unknown — this keeps phi-driven recomputation monotone and
// guarantees termination.
func (e *engine) update(v *ssa.Value, nx *symbolic.Expr) bool {
	if nx != nil && v.Type == ast.TypeReal {
		nx = e.opaque(v)
	}
	old := e.r.exprs[v.ID]
	if nx == nil || nx == old {
		return false
	}
	if old != nil {
		op := e.opaque(v)
		if old == op {
			return false
		}
		e.r.exprs[v.ID] = op
		return true
	}
	e.r.exprs[v.ID] = nx
	return true
}

func (e *engine) evalInstr(blk *cfg.Block, in *cfg.Instr) bool {
	changed := false
	switch in.Kind {
	case cfg.InstrAssign:
		if e.evalExprTree(in.Rhs) {
			changed = true
		}
		for _, s := range in.Subs {
			if e.evalExprTree(s) {
				changed = true
			}
		}
	case cfg.InstrRead:
		for _, t := range in.Targets {
			for _, s := range t.Subs {
				if e.evalExprTree(s) {
					changed = true
				}
			}
		}
		// The OpRead defs themselves are opaque; set once.
	case cfg.InstrPrint:
		for _, a := range in.Args {
			if e.evalExprTree(a) {
				changed = true
			}
		}
	case cfg.InstrCall:
		for _, a := range in.Site.Args {
			if e.evalExprTree(a) {
				changed = true
			}
		}
		if e.evalCallEffects(in) {
			changed = true
		}
	}
	return changed
}

// evalExprTree (re)computes the SSA values of an AST expression
// occurrence bottom-up, reporting whether anything changed.
func (e *engine) evalExprTree(expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	changed := false
	// Postorder: children first, then this occurrence.
	switch x := expr.(type) {
	case *ast.Unary:
		if e.evalExprTree(x.X) {
			changed = true
		}
	case *ast.Binary:
		if e.evalExprTree(x.X) {
			changed = true
		}
		if e.evalExprTree(x.Y) {
			changed = true
		}
	case *ast.Apply:
		for _, a := range x.Args {
			if e.evalExprTree(a) {
				changed = true
			}
		}
	}
	v := e.f.UseVal(expr)
	if v == nil {
		return changed
	}
	if e.update(v, e.evalValue(v)) {
		changed = true
	}
	return changed
}

// evalValue computes the current expression for a non-phi value.
func (e *engine) evalValue(v *ssa.Value) *symbolic.Expr {
	switch v.Op {
	case ssa.OpConst:
		return e.b.Const(v.AuxInt)
	case ssa.OpBoolConst:
		return e.b.Bool(v.AuxBool)
	case ssa.OpRealConst, ssa.OpStr, ssa.OpArrayLoad, ssa.OpRead, ssa.OpUndef:
		return e.opaque(v)
	case ssa.OpParam:
		return e.entryLeaf(v.AuxVar)
	case ssa.OpGlobalIn:
		return e.entryLeaf(v.AuxVar)
	case ssa.OpArith:
		return e.evalArith(v)
	case ssa.OpIntrinsic:
		args := e.argScratch[:0]
		for _, a := range v.Args {
			ae := e.r.exprs[a.ID]
			if ae == nil {
				return nil // ⊤ input: wait
			}
			args = append(args, ae)
		}
		e.argScratch = args
		return e.b.Intrinsic(v.AuxName, args)
	case ssa.OpCallRes, ssa.OpPostCall:
		// Handled by evalCallEffects; if asked directly, use the stored
		// value (or ⊤).
		return e.r.exprs[v.ID]
	case ssa.OpPhi:
		return e.evalPhi(v)
	}
	return e.opaque(v)
}

// entryLeaf gives the expression for an entry value: a constant when
// the interprocedural environment knows one, else the symbolic atom.
func (e *engine) entryLeaf(v ssa.Var) *symbolic.Expr {
	if c, ok := e.opts.Entry[v]; ok {
		return e.b.Const(c)
	}
	if v.Glob != nil {
		return e.b.GlobalLeaf(v.Glob)
	}
	return e.b.ParamLeaf(v.Sym)
}

func (e *engine) evalArith(v *ssa.Value) *symbolic.Expr {
	if len(v.Args) == 1 {
		a := e.r.exprs[v.Args[0].ID]
		if a == nil {
			return nil
		}
		switch v.AuxOp {
		case ast.OpNeg:
			return e.b.Neg(a)
		case ast.OpNot:
			return e.b.Not(a)
		}
		return e.opaque(v)
	}
	x := e.r.exprs[v.Args[0].ID]
	y := e.r.exprs[v.Args[1].ID]
	if x == nil || y == nil {
		return nil // ⊤: wait for inputs
	}
	// Mixed-type arithmetic (REAL operands) is outside the integer
	// domain: if either side is opaque-real the result is opaque anyway;
	// integer folding handles the rest.
	return e.b.Binary(symbolic.FromASTOp(v.AuxOp), x, y)
}

func (e *engine) evalPhi(phi *ssa.Value) *symbolic.Expr {
	blk := phi.Block
	var acc *symbolic.Expr
	for i, pred := range blk.Preds {
		if e.opts.Prune && !e.r.execEdge[2*pred.ID+succIndex(pred, blk, i)] {
			continue
		}
		if !e.r.execBlock[pred.ID] {
			continue
		}
		arg := phi.Args[i]
		if arg == nil {
			continue
		}
		ae := e.r.exprs[arg.ID]
		if ae == nil {
			continue // ⊤ contributes nothing (optimism)
		}
		if acc == nil {
			acc = ae
		} else if acc != ae {
			if e.opts.Gated {
				if g := e.gammaFor(phi); g != nil {
					return g
				}
			}
			return e.opaque(phi)
		}
	}
	return acc
}

// gammaFor tries to express a two-way join as a γ over the controlling
// branch predicate: phi(x₁, x₂) at the join of an if-then-else (or
// if-then) whose condition is a transparent expression becomes
// γ(cond, x_true, x_false). Requirements: exactly two predecessors,
// both arms' values known, the join's immediate dominator ends in the
// controlling conditional, and each arm is reached through exactly one
// of its successor edges.
func (e *engine) gammaFor(phi *ssa.Value) *symbolic.Expr {
	blk := phi.Block
	if len(blk.Preds) != 2 || len(phi.Args) != 2 {
		return nil
	}
	idom := e.f.Dom.Idom[blk.ID]
	if idom == nil || idom.Term.Kind != cfg.TermCond || len(idom.Succs) != 2 {
		return nil
	}
	cv := e.f.TermVal(idom)
	if cv == nil {
		return nil
	}
	ce := e.r.exprs[cv.ID]
	if ce == nil || ce.HasOpaque() {
		return nil
	}
	// Map each predecessor to the branch arm it belongs to.
	var arm [2]*symbolic.Expr
	for i, pred := range blk.Preds {
		if phi.Args[i] == nil {
			return nil
		}
		ae := e.r.exprs[phi.Args[i].ID]
		if ae == nil {
			return nil
		}
		side := -1
		if pred == idom {
			// Empty arm: the edge from the conditional directly to the
			// join. Find which successor slot it is.
			for si, s := range idom.Succs {
				if s == blk {
					side = si
				}
			}
		} else {
			t0 := e.f.Dom.Reachable(idom.Succs[0]) && e.f.Dom.Dominates(idom.Succs[0], pred)
			t1 := e.f.Dom.Reachable(idom.Succs[1]) && e.f.Dom.Dominates(idom.Succs[1], pred)
			if t0 && !t1 {
				side = 0
			} else if t1 && !t0 {
				side = 1
			}
		}
		if side < 0 || arm[side] != nil {
			return nil // irreducible / shared arm: stay conservative
		}
		arm[side] = ae
	}
	if arm[0] == nil || arm[1] == nil {
		return nil
	}
	return e.b.Gamma(ce, arm[0], arm[1])
}

// succIndex finds which successor slot of pred leads to blk for the
// pi-th predecessor entry. Because a block can appear twice in Succs
// (both arms of a branch), we must count occurrences.
func succIndex(pred, blk *cfg.Block, predSlot int) int {
	// Count how many earlier preds entries of blk equal pred: the k-th
	// occurrence of pred in blk.Preds corresponds to the k-th occurrence
	// of blk in pred.Succs (cfg links them in matching order).
	k := 0
	for i := 0; i < predSlot; i++ {
		if blk.Preds[i] == pred {
			k++
		}
	}
	seen := 0
	for si, s := range pred.Succs {
		if s == blk {
			if seen == k {
				return si
			}
			seen++
		}
	}
	return 0
}

// evalCallEffects computes CallRes and PostCall values at a site using
// the callee's return jump functions.
func (e *engine) evalCallEffects(in *cfg.Instr) bool {
	site := in.Site
	info := e.f.Call(site)
	if info == nil {
		return false
	}
	var summary *ReturnSummary
	if e.opts.ReturnJF != nil {
		summary = e.opts.ReturnJF(site.Callee)
	}
	changed := false

	// Post-call values of killed variables.
	for _, v := range info.Post {
		nx := e.postCallExpr(v, info, summary)
		if e.update(v, nx) {
			changed = true
		}
	}
	// Function result.
	if info.Result != nil {
		var nx *symbolic.Expr
		if summary != nil && summary.Result != nil {
			nx = e.substituteAtSite(summary.Result, info, summary.Proc)
			nx = e.restrictFor(nx, info.Result)
		} else {
			nx = e.opaque(info.Result)
		}
		if e.update(info.Result, nx) {
			changed = true
		}
	}
	return changed
}

// postCallExpr computes the value of variable v.AuxVar after the call.
func (e *engine) postCallExpr(v *ssa.Value, info *ssa.CallInfo, summary *ReturnSummary) *symbolic.Expr {
	if summary == nil {
		return e.opaque(v)
	}
	var rjf *symbolic.Expr
	if v.AuxVar.Glob != nil {
		// Killed either as a global or as an actual bound to a formal.
		if idx, multi := actualIndexOfVar(e.f, info, v.AuxVar); multi {
			return e.opaque(v)
		} else if idx >= 0 {
			// The global aliases the formal inside the callee. The
			// formal's return jump function is valid only if the callee
			// cannot also write the storage under its COMMON name.
			if e.opts.GMod == nil || e.opts.GMod(info.Site.Callee, v.AuxVar.Glob) {
				return e.opaque(v)
			}
			rjf = summary.Formals[idx]
		} else {
			rjf = summary.Globals[v.AuxVar.Glob]
		}
	} else {
		idx, multi := actualIndexOfVar(e.f, info, v.AuxVar)
		if multi || idx < 0 {
			return e.opaque(v)
		}
		rjf = summary.Formals[idx]
	}
	if rjf == nil {
		return e.opaque(v)
	}
	nx := e.substituteAtSite(rjf, info, summary.Proc)
	return e.restrictFor(nx, v)
}

// actualIndexOfVar finds the (unique) actual-argument position that
// passes exactly the variable v. multi is true when the variable is
// passed more than once (aliasing; conservatively opaque).
func actualIndexOfVar(f *ssa.Func, info *ssa.CallInfo, v ssa.Var) (int, bool) {
	idx := -1
	for i, arg := range info.Site.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		s := f.Proc.Lookup(id.Name)
		if s == nil || s.IsArray {
			continue
		}
		if ssa.VarOf(s) == v {
			if idx >= 0 {
				return idx, true
			}
			idx = i
		}
	}
	return idx, false
}

// substituteAtSite rewrites a callee-side expression into the caller's
// terms: the callee's formal leaves become the actuals' expressions and
// global leaves become the globals' values at the call. A nil result
// means some input is still ⊤.
func (e *engine) substituteAtSite(rjf *symbolic.Expr, info *ssa.CallInfo, callee *sem.Procedure) *symbolic.Expr {
	// First check all needed inputs are known (≠ ⊤).
	for _, leaf := range rjf.Support() {
		if le := e.leafValueAtSite(leaf, info, callee); le == nil {
			return nil
		}
	}
	return e.b.Substitute(rjf, func(leaf *symbolic.Expr) *symbolic.Expr {
		if le := e.leafValueAtSite(leaf, info, callee); le != nil {
			return le
		}
		return e.b.FreshOpaque()
	})
}

func (e *engine) leafValueAtSite(leaf *symbolic.Expr, info *ssa.CallInfo, callee *sem.Procedure) *symbolic.Expr {
	switch leaf.Op {
	case symbolic.OpParam:
		idx := leaf.Param.FormalIndex
		if idx < 0 || idx >= len(info.ArgVals) || info.ArgVals[idx] == nil {
			return e.b.FreshOpaque()
		}
		return e.r.exprs[info.ArgVals[idx].ID]
	case symbolic.OpGlobal:
		gv := info.GlobalVal(leaf.Global)
		if gv == nil {
			return e.b.FreshOpaque()
		}
		return e.r.exprs[gv.ID]
	}
	return leaf
}

// restrictFor applies the paper's limitation: a substituted return
// jump function is kept only when it evaluated to a constant (unless
// FullSubstitution is enabled and the result is transparent).
func (e *engine) restrictFor(nx *symbolic.Expr, v *ssa.Value) *symbolic.Expr {
	if nx == nil {
		return nil
	}
	if _, ok := nx.IsConst(); ok {
		return nx
	}
	if e.opts.FullSubstitution && !nx.HasOpaque() {
		return nx
	}
	return e.opaque(v)
}

// propagateEdges marks successor edges/blocks executable based on the
// terminator's condition value.
func (e *engine) propagateEdges(blk *cfg.Block) bool {
	mark := func(idx int) bool {
		if idx >= len(blk.Succs) {
			return false
		}
		changed := false
		if k := 2*blk.ID + idx; !e.r.execEdge[k] {
			e.r.execEdge[k] = true
			changed = true
		}
		succ := blk.Succs[idx]
		if !e.r.execBlock[succ.ID] {
			e.r.execBlock[succ.ID] = true
			changed = true
		}
		return changed
	}
	switch blk.Term.Kind {
	case cfg.TermJump, cfg.TermReturn, cfg.TermStop:
		changed := false
		for i := range blk.Succs {
			if mark(i) {
				changed = true
			}
		}
		return changed
	case cfg.TermCond:
		cv := e.f.TermVal(blk)
		var ce *symbolic.Expr
		if cv != nil {
			// Make sure the condition value itself is up to date.
			e.evalExprTree(blk.Term.Cond)
			ce = e.r.exprs[cv.ID]
		}
		if e.opts.Prune {
			if ce == nil {
				return false // ⊤: no edge executable yet
			}
			if b, ok := ce.IsBool(); ok {
				if b {
					return mark(0)
				}
				return mark(1)
			}
		}
		changed := mark(0)
		if mark(1) {
			changed = true
		}
		return changed
	}
	return false
}
