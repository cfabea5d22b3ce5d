package ast

// Deep cloning of AST nodes. The clones share positions (they denote
// the same source text) and expression numbers but no node pointers, so
// transformations like procedure cloning can rewrite one copy without
// disturbing the other.

// CloneUnit returns a deep copy of a program unit.
func CloneUnit(u *Unit) *Unit {
	out := &Unit{
		Position: u.Position,
		Kind:     u.Kind,
		Name:     u.Name,
		Result:   u.Result,
		NumExprs: u.NumExprs,
	}
	for _, p := range u.Params {
		out.Params = append(out.Params, &Param{Position: p.Position, Name: p.Name})
	}
	for _, d := range u.Decls {
		out.Decls = append(out.Decls, CloneDecl(d))
	}
	out.Body = CloneStmts(u.Body)
	return out
}

// CloneDecl returns a deep copy of a declaration.
func CloneDecl(d Decl) Decl {
	switch x := d.(type) {
	case *VarDecl:
		return &VarDecl{Position: x.Position, Type: x.Type, Items: cloneItems(x.Items)}
	case *CommonDecl:
		return &CommonDecl{Position: x.Position, Block: x.Block, Items: cloneItems(x.Items)}
	case *ParamDecl:
		out := &ParamDecl{Position: x.Position, Names: append([]string(nil), x.Names...)}
		for _, v := range x.Values {
			out.Values = append(out.Values, CloneExpr(v))
		}
		return out
	case *DimensionDecl:
		return &DimensionDecl{Position: x.Position, Items: cloneItems(x.Items)}
	case *DataDecl:
		out := &DataDecl{Position: x.Position, Names: append([]string(nil), x.Names...)}
		for _, v := range x.Values {
			out.Values = append(out.Values, CloneExpr(v))
		}
		return out
	}
	return d
}

func cloneItems(items []*DeclItem) []*DeclItem {
	out := make([]*DeclItem, len(items))
	for i, it := range items {
		ni := &DeclItem{Position: it.Position, Name: it.Name}
		for _, d := range it.Dims {
			ni.Dims = append(ni.Dims, CloneExpr(d))
		}
		out[i] = ni
	}
	return out
}

// CloneStmts deep-copies a statement list.
func CloneStmts(stmts []Stmt) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneStmt deep-copies one statement (labels preserved).
func CloneStmt(s Stmt) Stmt {
	var out Stmt
	switch x := s.(type) {
	case *AssignStmt:
		out = &AssignStmt{StmtBase: x.StmtBase, Lhs: CloneExpr(x.Lhs), Rhs: CloneExpr(x.Rhs)}
	case *CallStmt:
		out = &CallStmt{StmtBase: x.StmtBase, Name: x.Name, Args: cloneExprs(x.Args)}
	case *IfStmt:
		n := &IfStmt{StmtBase: x.StmtBase, Cond: CloneExpr(x.Cond), Logical: x.Logical}
		n.Then = CloneStmts(x.Then)
		for _, ei := range x.ElseIfs {
			n.ElseIfs = append(n.ElseIfs, &ElseIfClause{Position: ei.Position, Cond: CloneExpr(ei.Cond), Body: CloneStmts(ei.Body)})
		}
		n.Else = CloneStmts(x.Else)
		out = n
	case *DoStmt:
		n := &DoStmt{StmtBase: x.StmtBase, Var: x.Var, From: CloneExpr(x.From), To: CloneExpr(x.To), EndLabel: x.EndLabel}
		if x.Step != nil {
			n.Step = CloneExpr(x.Step)
		}
		n.Body = CloneStmts(x.Body)
		out = n
	case *GotoStmt:
		out = &GotoStmt{StmtBase: x.StmtBase, Target: x.Target}
	case *ComputedGotoStmt:
		out = &ComputedGotoStmt{StmtBase: x.StmtBase, Targets: append([]string(nil), x.Targets...), Index: CloneExpr(x.Index)}
	case *ArithIfStmt:
		out = &ArithIfStmt{StmtBase: x.StmtBase, Expr: CloneExpr(x.Expr), LtLabel: x.LtLabel, EqLabel: x.EqLabel, GtLabel: x.GtLabel}
	case *ContinueStmt:
		out = &ContinueStmt{StmtBase: x.StmtBase}
	case *ReturnStmt:
		out = &ReturnStmt{StmtBase: x.StmtBase}
	case *StopStmt:
		out = &StopStmt{StmtBase: x.StmtBase}
	case *ReadStmt:
		out = &ReadStmt{StmtBase: x.StmtBase, Args: cloneExprs(x.Args)}
	case *PrintStmt:
		out = &PrintStmt{StmtBase: x.StmtBase, Args: cloneExprs(x.Args)}
	default:
		return s
	}
	return out
}

func cloneExprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = CloneExpr(e)
	}
	return out
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *IntLit:
		c := *x
		return &c
	case *RealLit:
		c := *x
		return &c
	case *LogLit:
		c := *x
		return &c
	case *StrLit:
		c := *x
		return &c
	case *Ident:
		c := *x
		return &c
	case *Apply:
		return &Apply{Position: x.Position, ID: x.ID, Name: x.Name, Args: cloneExprs(x.Args)}
	case *Unary:
		return &Unary{Position: x.Position, ID: x.ID, Op: x.Op, X: CloneExpr(x.X)}
	case *Binary:
		return &Binary{Position: x.Position, ID: x.ID, Op: x.Op, X: CloneExpr(x.X), Y: CloneExpr(x.Y)}
	}
	return e
}
