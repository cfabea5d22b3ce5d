package sem

import (
	"repro/internal/ast"
	"repro/internal/source"
)

// ---------------------------------------------------------------------
// Pass 3: bodies — label collection, expression resolution, type checks

func (a *analyzer) checkBody(p *Procedure) {
	p.exprTypes = make([]ast.BaseType, p.Unit.NumExprs)
	p.applyKinds = make([]ApplyKind, p.Unit.NumExprs)
	// Collect labels first so forward GOTOs resolve.
	ast.WalkStmts(p.Unit.Body, func(s ast.Stmt) bool {
		if l := s.Label(); l != "" {
			if _, dup := p.Labels[l]; dup {
				a.errorf(s.Pos(), "duplicate label %s in %s", l, p.Name)
			} else {
				p.Labels[l] = s
			}
		}
		return true
	})
	a.checkStmts(p, p.Unit.Body)

	// A function must assign its result somewhere.
	if p.IsFunction() && p.Result != nil {
		assigned := false
		ast.WalkStmts(p.Unit.Body, func(s ast.Stmt) bool {
			if as, ok := s.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs.(*ast.Ident); ok && id.Name == p.Name {
					assigned = true
				}
			}
			return true
		})
		if !assigned {
			a.diags.Warnf(p.Unit.Pos(), "function %s never assigns its result", p.Name)
		}
	}
}

func (a *analyzer) checkStmts(p *Procedure, stmts []ast.Stmt) {
	for _, s := range stmts {
		a.checkStmt(p, s)
	}
}

func (a *analyzer) checkStmt(p *Procedure, s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		lt := a.checkLvalue(p, x.Lhs)
		rt := a.exprType(p, x.Rhs)
		a.checkAssignable(x.Pos(), lt, rt)
	case *ast.CallStmt:
		a.checkCall(p, x.Pos(), x.Name, x.Args, false)
	case *ast.IfStmt:
		if t := a.exprType(p, x.Cond); t != ast.TypeLogical && t != ast.TypeNone {
			a.errorf(x.Cond.Pos(), "IF condition must be LOGICAL, got %s", t)
		}
		a.checkStmts(p, x.Then)
		for _, ei := range x.ElseIfs {
			if t := a.exprType(p, ei.Cond); t != ast.TypeLogical && t != ast.TypeNone {
				a.errorf(ei.Cond.Pos(), "ELSEIF condition must be LOGICAL, got %s", t)
			}
			a.checkStmts(p, ei.Body)
		}
		a.checkStmts(p, x.Else)
	case *ast.DoStmt:
		v := a.ensureVar(p, x.Var, x.Pos())
		if v.Kind == SymConst || v.Kind == SymProc {
			a.errorf(x.Pos(), "DO variable %s is a %s", x.Var, v.Kind)
		}
		if v.IsArray {
			a.errorf(x.Pos(), "DO variable %s is an array", x.Var)
		}
		a.intOperand(p, x.From, "DO initial value")
		a.intOperand(p, x.To, "DO bound")
		if x.Step != nil {
			a.intOperand(p, x.Step, "DO step")
		}
		a.checkStmts(p, x.Body)
	case *ast.GotoStmt:
		if _, ok := p.Labels[x.Target]; !ok {
			a.errorf(x.Pos(), "GOTO target label %s not defined in %s", x.Target, p.Name)
		}
	case *ast.ComputedGotoStmt:
		a.intOperand(p, x.Index, "computed GOTO index")
		for _, l := range x.Targets {
			if _, ok := p.Labels[l]; !ok {
				a.errorf(x.Pos(), "GOTO target label %s not defined in %s", l, p.Name)
			}
		}
	case *ast.ArithIfStmt:
		if t := a.exprType(p, x.Expr); t == ast.TypeLogical {
			a.errorf(x.Expr.Pos(), "arithmetic IF requires an arithmetic expression, got %s", t)
		}
		for _, l := range []string{x.LtLabel, x.EqLabel, x.GtLabel} {
			if _, ok := p.Labels[l]; !ok {
				a.errorf(x.Pos(), "IF target label %s not defined in %s", l, p.Name)
			}
		}
	case *ast.ReadStmt:
		for _, arg := range x.Args {
			a.checkLvalue(p, arg)
		}
	case *ast.PrintStmt:
		for _, arg := range x.Args {
			a.exprType(p, arg)
		}
	case *ast.ReturnStmt, *ast.StopStmt, *ast.ContinueStmt:
		// Nothing to check.
	}
}

// checkAssignable reports an error when a value of type rt cannot be
// assigned to a target of type lt. INTEGER and REAL interconvert;
// LOGICAL only matches itself.
func (a *analyzer) checkAssignable(pos source.Position, lt, rt ast.BaseType) {
	if lt == ast.TypeNone || rt == ast.TypeNone {
		return // earlier error already reported
	}
	if lt == ast.TypeLogical || rt == ast.TypeLogical {
		if lt != rt {
			a.errorf(pos, "cannot assign %s to %s", rt, lt)
		}
	}
}

// intOperand types e and requires it to be INTEGER.
func (a *analyzer) intOperand(p *Procedure, e ast.Expr, what string) {
	if t := a.exprType(p, e); t != ast.TypeInteger && t != ast.TypeNone {
		a.errorf(e.Pos(), "%s must be INTEGER, got %s", what, t)
	}
}

// checkLvalue types an assignment / READ target and returns its type.
func (a *analyzer) checkLvalue(p *Procedure, e ast.Expr) ast.BaseType {
	switch x := e.(type) {
	case *ast.Ident:
		s := a.ensureVar(p, x.Name, x.Pos())
		switch s.Kind {
		case SymConst:
			a.errorf(x.Pos(), "cannot assign to PARAMETER constant %s", x.Name)
		case SymProc:
			a.errorf(x.Pos(), "cannot assign to procedure %s", x.Name)
		}
		if s.IsArray {
			a.errorf(x.Pos(), "array %s assigned without subscripts", x.Name)
		}
		p.setType(e, s.Type)
		return s.Type
	case *ast.Apply:
		// Must be an array element on the left-hand side.
		s, ok := p.Symbols[x.Name]
		if !ok || !s.IsArray {
			a.errorf(x.Pos(), "%s is not an array", x.Name)
			p.setType(e, ast.TypeNone)
			return ast.TypeNone
		}
		p.setApplyKind(x, ApplyArray)
		a.checkSubscripts(p, x, s)
		p.setType(e, s.Type)
		return s.Type
	}
	a.errorf(e.Pos(), "invalid assignment target")
	return ast.TypeNone
}

func (a *analyzer) checkSubscripts(p *Procedure, x *ast.Apply, s *Symbol) {
	if len(s.Dims) > 0 && len(x.Args) != len(s.Dims) {
		a.errorf(x.Pos(), "array %s has %d dimension(s), subscripted with %d", x.Name, len(s.Dims), len(x.Args))
	}
	for _, sub := range x.Args {
		a.intOperand(p, sub, "array subscript")
	}
}

// checkCall validates a CALL statement or function reference and returns
// the result type for function calls.
func (a *analyzer) checkCall(p *Procedure, pos source.Position, name string, args []ast.Expr, wantValue bool) ast.BaseType {
	for _, arg := range args {
		a.exprType(p, arg)
	}
	callee, ok := a.prog.Procs[name]
	if !ok {
		a.errorf(pos, "call to undefined procedure %s", name)
		return ast.TypeNone
	}
	if wantValue && callee.Unit.Kind != ast.FunctionUnit {
		a.errorf(pos, "%s is a %s, not a FUNCTION", name, callee.Unit.Kind)
		return ast.TypeNone
	}
	if !wantValue && callee.Unit.Kind != ast.SubroutineUnit {
		a.errorf(pos, "CALL target %s is a %s, not a SUBROUTINE", name, callee.Unit.Kind)
		return ast.TypeNone
	}
	if len(args) != len(callee.Formals) {
		a.errorf(pos, "%s takes %d argument(s), got %d", name, len(callee.Formals), len(args))
	}
	// Array actuals must be passed whole or as elements — both fine; but
	// passing an array where a scalar formal is expected is flagged.
	for i, arg := range args {
		if i >= len(callee.Formals) {
			break
		}
		formal := callee.Formals[i]
		if id, ok := arg.(*ast.Ident); ok {
			if s := p.Lookup(id.Name); s != nil && s.IsArray && !formal.IsArray {
				a.errorf(arg.Pos(), "argument %d of %s: array %s passed to scalar formal %s", i+1, name, id.Name, formal.Name)
			}
		}
	}
	if callee.Unit.Kind == ast.FunctionUnit {
		return callee.Unit.Result
	}
	return ast.TypeNone
}

// exprType resolves and types an expression, recording results in the
// procedure's side tables.
func (a *analyzer) exprType(p *Procedure, e ast.Expr) ast.BaseType {
	t := a.exprType1(p, e)
	p.setType(e, t)
	return t
}

func (a *analyzer) exprType1(p *Procedure, e ast.Expr) ast.BaseType {
	switch x := e.(type) {
	case *ast.IntLit:
		return ast.TypeInteger
	case *ast.RealLit:
		return ast.TypeReal
	case *ast.LogLit:
		return ast.TypeLogical
	case *ast.StrLit:
		return ast.TypeNone // strings only appear in PRINT
	case *ast.Ident:
		s := a.ensureVar(p, x.Name, x.Pos())
		if s.Kind == SymResult {
			// Reading the result variable is allowed inside the function.
			return s.Type
		}
		return s.Type
	case *ast.Unary:
		t := a.exprType(p, x.X)
		if x.Op == ast.OpNot {
			if t != ast.TypeLogical && t != ast.TypeNone {
				a.errorf(x.Pos(), ".NOT. applied to %s", t)
			}
			return ast.TypeLogical
		}
		if t == ast.TypeLogical {
			a.errorf(x.Pos(), "unary %s applied to LOGICAL", x.Op)
			return ast.TypeNone
		}
		return t
	case *ast.Binary:
		lt := a.exprType(p, x.X)
		rt := a.exprType(p, x.Y)
		switch {
		case x.Op.IsLogical():
			if (lt != ast.TypeLogical && lt != ast.TypeNone) || (rt != ast.TypeLogical && rt != ast.TypeNone) {
				a.errorf(x.Pos(), "%s applied to non-LOGICAL operands (%s, %s)", x.Op, lt, rt)
			}
			return ast.TypeLogical
		case x.Op.IsRelational():
			if lt == ast.TypeLogical || rt == ast.TypeLogical {
				a.errorf(x.Pos(), "%s cannot compare LOGICAL values", x.Op)
			}
			return ast.TypeLogical
		default: // arithmetic
			if lt == ast.TypeLogical || rt == ast.TypeLogical {
				a.errorf(x.Pos(), "arithmetic %s applied to LOGICAL", x.Op)
				return ast.TypeNone
			}
			if lt == ast.TypeReal || rt == ast.TypeReal {
				return ast.TypeReal
			}
			if lt == ast.TypeNone || rt == ast.TypeNone {
				return ast.TypeNone
			}
			return ast.TypeInteger
		}
	case *ast.Apply:
		return a.applyType(p, x)
	}
	return ast.TypeNone
}

// applyType resolves NAME(args) into an array element, an intrinsic
// call, or a user function call.
func (a *analyzer) applyType(p *Procedure, x *ast.Apply) ast.BaseType {
	// 1. Array element, if the name is a declared array.
	if s, ok := p.Symbols[x.Name]; ok && s.IsArray {
		p.setApplyKind(x, ApplyArray)
		a.checkSubscripts(p, x, s)
		return s.Type
	}
	// 2. Intrinsic.
	if in, ok := Intrinsics[x.Name]; ok {
		p.setApplyKind(x, ApplyIntrinsic)
		if len(x.Args) < in.MinArgs || (in.MaxArgs >= 0 && len(x.Args) > in.MaxArgs) {
			a.errorf(x.Pos(), "intrinsic %s called with %d argument(s)", x.Name, len(x.Args))
		}
		allInt := true
		for _, arg := range x.Args {
			t := a.exprType(p, arg)
			if t == ast.TypeLogical {
				a.errorf(arg.Pos(), "intrinsic %s applied to LOGICAL", x.Name)
			}
			if t != ast.TypeInteger {
				allInt = false
			}
		}
		if in.IntInInt && allInt {
			return ast.TypeInteger
		}
		return ast.TypeReal
	}
	// 3. User function.
	if _, ok := a.prog.Procs[x.Name]; ok {
		p.setApplyKind(x, ApplyCall)
		return a.checkCall(p, x.Pos(), x.Name, x.Args, true)
	}
	a.errorf(x.Pos(), "%s is neither an array, an intrinsic, nor a defined function", x.Name)
	return ast.TypeNone
}
