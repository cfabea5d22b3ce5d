package ssa

import (
	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/sem"
)

// Renaming: a preorder walk of the dominator tree keeping each
// variable's reaching definition (Cytron et al., fig. 12). A definition
// logs the one it shadows on defStack; leaving the block restores them.

// def makes val the reaching definition of v.
func (b *ssaBuilder) def(v Var, val *Value) {
	n := b.f.varNum(v)
	b.defStack = append(b.defStack, savedDef{num: int32(n), old: b.vars[n].cur})
	b.vars[n].cur = val
}

func (b *ssaBuilder) top(v Var) *Value {
	vs := &b.vars[b.f.varNum(v)]
	if vs.cur == nil {
		// Use of a (possibly) uninitialized variable: one shared undef
		// value per variable. No definition of v is live, so nothing
		// on defStack restores over it.
		u := b.newValue(OpUndef, b.f.Graph.Entry)
		u.AuxVar = v
		u.Type = varType(v)
		vs.cur = u
	}
	return vs.cur
}

// varType returns a variable's declared F77s type.
func varType(v Var) ast.BaseType {
	if v.Glob != nil {
		return v.Glob.Type
	}
	return v.Sym.Type
}

// cast wraps a value in a conversion when the assignment target's type
// differs (e.g. an integer expression stored into a REAL variable).
func (b *ssaBuilder) cast(blk *cfg.Block, val *Value, t ast.BaseType) *Value {
	if val.Type == t || t == ast.TypeNone {
		return val
	}
	c := b.newValue(OpCast, blk)
	c.Args = b.argSpan(1)
	c.Args[0] = val
	c.Type = t
	return c
}

func (b *ssaBuilder) rename(blk *cfg.Block) {
	mark := len(b.defStack)

	// Phis defined at block entry.
	for _, phi := range b.f.Phis(blk) {
		b.def(phi.AuxVar, phi)
	}

	// Instructions.
	for _, in := range blk.Instrs {
		switch in.Kind {
		case cfg.InstrAssign:
			rhs := b.evalExpr(blk, in.Rhs)
			if in.Lhs != nil {
				b.def(VarOf(in.Lhs), b.cast(blk, rhs, in.Lhs.Type))
			} else {
				// Array store: evaluate subscripts for their uses; the
				// array itself is untracked.
				for _, s := range in.Subs {
					b.evalExpr(blk, s)
				}
			}
		case cfg.InstrRead:
			for _, t := range in.Targets {
				for _, s := range t.Subs {
					b.evalExpr(blk, s)
				}
				if t.Subs == nil && t.Sym != nil && !t.Sym.IsArray {
					v := b.newValue(OpRead, blk)
					v.AuxVar = VarOf(t.Sym)
					v.Type = t.Sym.Type
					b.def(VarOf(t.Sym), v)
				}
			}
		case cfg.InstrPrint:
			for _, a := range in.Args {
				b.evalExpr(blk, a)
			}
		case cfg.InstrCall:
			b.renameCall(blk, in)
		}
	}

	// Terminator condition.
	if blk.Term.Kind == cfg.TermCond {
		b.f.termVals[blk.ID] = b.evalExpr(blk, blk.Term.Cond)
	}

	// Record exit values for return jump functions.
	if blk == b.f.Graph.Exit {
		b.f.exitVals = make([]*Value, len(b.vars))
		for _, s := range b.f.Proc.Formals {
			if !s.IsArray {
				b.f.exitVals[b.f.varNum(VarOf(s))] = b.top(VarOf(s))
			}
		}
		for _, g := range b.opts.Globals {
			if !g.IsArray {
				b.f.exitVals[g.Num()] = b.top(GlobalVar(g))
			}
		}
		if r := b.f.Proc.Result; r != nil {
			b.f.exitVals[b.f.varNum(VarOf(r))] = b.top(VarOf(r))
		}
	}

	// Fill phi arguments in successors.
	for _, succ := range blk.Succs {
		// This block may appear multiple times among succ's preds (e.g.
		// a conditional with identical arms); fill every matching slot.
		for pi, pred := range succ.Preds {
			if pred != blk {
				continue
			}
			for _, phi := range b.f.Phis(succ) {
				phi.Args[pi] = b.top(phi.AuxVar)
			}
		}
	}

	// Recurse over dominator-tree children.
	for _, child := range b.f.Dom.Children[blk.ID] {
		b.rename(child)
	}

	// Undo this block's definitions.
	for i := len(b.defStack) - 1; i >= mark; i-- {
		d := b.defStack[i]
		b.vars[d.num].cur = d.old
	}
	b.defStack = b.defStack[:mark]
}

func (b *ssaBuilder) renameCall(blk *cfg.Block, in *cfg.Instr) {
	site := in.Site
	info := &b.f.calls[site.ID]
	info.Site = site
	info.ArgVals = b.argSpan(len(site.Args))
	info.ArgIsWholeArray = make([]bool, len(site.Args))
	// Evaluate actuals (before any kills).
	for i, arg := range site.Args {
		if id, ok := arg.(*ast.Ident); ok {
			if s := b.f.Proc.Lookup(id.Name); s != nil && s.IsArray {
				info.ArgIsWholeArray[i] = true
				continue
			}
		}
		info.ArgVals[i] = b.evalExpr(blk, arg)
	}
	// Record the value of every global at the call.
	ng := b.f.numGlobals
	info.globalVals = b.globalSlab[site.ID*ng : (site.ID+1)*ng : (site.ID+1)*ng]
	for _, g := range b.opts.Globals {
		if !g.IsArray {
			info.globalVals[g.Num()] = b.top(GlobalVar(g))
		}
	}
	// Kills: modified variables get fresh post-call definitions.
	kills := b.kills[b.killStart[site.ID]:b.killStart[site.ID+1]]
	info.Post = b.argSpan(len(kills))
	for i, n := range kills {
		v := b.vars[n].v
		pv := b.newValue(OpPostCall, blk)
		pv.AuxVar = v
		pv.AuxSite = site
		pv.Type = varType(v)
		info.Post[i] = pv
		b.def(v, pv)
	}
	// Function result.
	if in.Lhs != nil {
		rv := b.newValue(OpCallRes, blk)
		rv.AuxSite = site
		rv.Type = in.Lhs.Type
		info.Result = rv
		b.def(VarOf(in.Lhs), rv)
	}
}

// evalExpr builds the SSA value of an expression occurrence, recording
// it for UseVal and UseBlock (unnumbered nodes are not recorded).
func (b *ssaBuilder) evalExpr(blk *cfg.Block, e ast.Expr) *Value {
	v := b.evalExpr1(blk, e)
	if id := e.ExprID(); id != 0 {
		b.f.uses[id] = exprUse{val: v, blk: blk}
	}
	return v
}

// constVal returns the procedure's one OpConst value for c, defined in
// the entry block so that it dominates every use.
func (b *ssaBuilder) constVal(c int64) *Value {
	if 2*(b.nconsts+1) > len(b.consts) {
		old := b.consts
		b.consts = make([]*Value, 2*len(old))
		for _, v := range old {
			if v != nil {
				b.consts[b.constSlot(v.AuxInt)] = v
			}
		}
	}
	i := b.constSlot(c)
	if v := b.consts[i]; v != nil {
		return v
	}
	v := b.newValue(OpConst, b.f.Graph.Entry)
	v.AuxInt = c
	v.Type = ast.TypeInteger
	b.consts[i] = v
	b.nconsts++
	return v
}

// constSlot returns the consts slot that holds c, or the empty slot
// where it belongs (linear probing from a Fibonacci hash).
func (b *ssaBuilder) constSlot(c int64) uint64 {
	mask := uint64(len(b.consts) - 1)
	h := uint64(c) * 0x9E3779B97F4A7C15
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		if v := b.consts[i]; v == nil || v.AuxInt == c {
			return i
		}
	}
}

func (b *ssaBuilder) evalExpr1(blk *cfg.Block, e ast.Expr) *Value {
	switch x := e.(type) {
	case *ast.IntLit:
		return b.constVal(x.Value)
	case *ast.RealLit:
		v := b.newValue(OpRealConst, blk)
		v.Type = ast.TypeReal
		return v
	case *ast.LogLit:
		v := b.newValue(OpBoolConst, blk)
		v.AuxBool = x.Value
		v.Type = ast.TypeLogical
		return v
	case *ast.StrLit:
		return b.newValue(OpStr, blk)
	case *ast.Ident:
		s := b.f.Proc.Lookup(x.Name)
		if s == nil {
			return b.newValue(OpUndef, blk)
		}
		switch s.Kind {
		case sem.SymConst:
			if s.HasConst {
				return b.constVal(s.ConstValue)
			}
			return b.newValue(OpUndef, blk)
		default:
			if s.IsArray {
				// Whole-array reference outside a call: opaque.
				v := b.newValue(OpArrayLoad, blk)
				v.AuxVar = Var{Sym: s}
				v.Type = s.Type
				return v
			}
			return b.top(VarOf(s))
		}
	case *ast.Unary:
		arg := b.evalExpr(blk, x.X)
		v := b.newValue(OpArith, blk)
		v.AuxOp = x.Op
		v.Args = b.argSpan(1)
		v.Args[0] = arg
		if x.Op == ast.OpNot {
			v.Type = ast.TypeLogical
		} else {
			v.Type = arg.Type
		}
		return v
	case *ast.Binary:
		l := b.evalExpr(blk, x.X)
		r := b.evalExpr(blk, x.Y)
		v := b.newValue(OpArith, blk)
		v.AuxOp = x.Op
		v.Args = b.argSpan(2)
		v.Args[0], v.Args[1] = l, r
		switch {
		case x.Op.IsRelational() || x.Op.IsLogical():
			v.Type = ast.TypeLogical
		case l.Type == ast.TypeReal || r.Type == ast.TypeReal:
			v.Type = ast.TypeReal
		default:
			v.Type = ast.TypeInteger
		}
		return v
	case *ast.Apply:
		args := b.argSpan(len(x.Args))
		for i, a := range x.Args {
			args[i] = b.evalExpr(blk, a)
		}
		if s := b.f.Proc.Lookup(x.Name); s != nil && s.IsArray {
			v := b.newValue(OpArrayLoad, blk)
			v.AuxVar = Var{Sym: s}
			v.Args = args
			v.Type = s.Type
			return v
		}
		if in, ok := sem.Intrinsics[x.Name]; ok {
			v := b.newValue(OpIntrinsic, blk)
			v.AuxName = x.Name
			v.Args = args
			v.Type = ast.TypeInteger
			if !in.IntInInt {
				v.Type = ast.TypeReal
			}
			for _, a := range args {
				if a.Type == ast.TypeReal {
					v.Type = ast.TypeReal
				}
			}
			return v
		}
		// User function calls were extracted by the CFG builder; anything
		// left is an error already reported by sem.
		return b.newValue(OpUndef, blk)
	}
	return b.newValue(OpUndef, blk)
}
