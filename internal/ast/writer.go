package ast

import (
	"fmt"
	"io"
	"strings"
)

// WriteFile renders a file back to F77s source text. The output
// round-trips through the parser: parse(Write(f)) is structurally equal
// to f (modulo positions). This is the basis of the substitution pass's
// "transformed source" option.
func WriteFile(w io.Writer, f *File) error {
	return WriteFileSubst(w, f, nil)
}

// WriteFileSubst renders a file with substitutions: any expression node
// present in repl prints as the replacement text instead of its normal
// rendering. The substitution pass uses this to emit the "transformed
// version of the original source in which the interprocedural constants
// are textually substituted into the code".
func WriteFileSubst(w io.Writer, f *File, repl map[Expr]string) error {
	pw := &printer{w: w, repl: repl}
	for i, u := range f.Units {
		if i > 0 {
			pw.line(0, "")
		}
		pw.unit(u)
	}
	return pw.err
}

// FileString renders a file to a string.
func FileString(f *File) string {
	var b strings.Builder
	_ = WriteFile(&b, f) // strings.Builder never errors
	return b.String()
}

// ExprString renders an expression as F77s source.
func ExprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e, 0, nil)
	return b.String()
}

// ExprStringSubst renders an expression applying replacements.
func ExprStringSubst(e Expr, repl map[Expr]string) string {
	var b strings.Builder
	writeExpr(&b, e, 0, repl)
	return b.String()
}

// StmtString renders one statement (and any nested bodies) as source.
func StmtString(s Stmt) string {
	var b strings.Builder
	pw := &printer{w: &b}
	pw.stmt(1, s)
	return strings.TrimRight(b.String(), "\n")
}

// stmtString renders a statement with this printer's substitutions.
func (p *printer) stmtString(s Stmt) string {
	var b strings.Builder
	pw := &printer{w: &b, repl: p.repl}
	pw.stmt(1, s)
	return strings.TrimRight(b.String(), "\n")
}

// lhsString renders an assignment target: the target itself is never
// substituted, but its subscripts are.
func (p *printer) lhsString(e Expr) string {
	if a, ok := e.(*Apply); ok {
		return a.Name + "(" + p.exprList(a.Args) + ")"
	}
	if id, ok := e.(*Ident); ok {
		return id.Name
	}
	return p.expr(e)
}

// readTargets renders READ targets: targets are never substituted, but
// array subscripts are.
func (p *printer) readTargets(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = p.lhsString(e)
	}
	return strings.Join(parts, ", ")
}

type printer struct {
	w    io.Writer
	err  error
	repl map[Expr]string
}

func (p *printer) expr(e Expr) string {
	return ExprStringSubst(e, p.repl)
}

func (p *printer) line(indent int, format string, args ...interface{}) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s\n", strings.Repeat("  ", indent), fmt.Sprintf(format, args...))
}

func (p *printer) unit(u *Unit) {
	switch u.Kind {
	case ProgramUnit:
		p.line(0, "PROGRAM %s", u.Name)
	case SubroutineUnit:
		p.line(0, "SUBROUTINE %s(%s)", u.Name, paramList(u.Params))
	case FunctionUnit:
		p.line(0, "%s FUNCTION %s(%s)", u.Result, u.Name, paramList(u.Params))
	}
	for _, d := range u.Decls {
		p.decl(1, d)
	}
	for _, s := range u.Body {
		p.stmt(1, s)
	}
	p.line(0, "END")
}

func paramList(ps []*Param) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

func (p *printer) declItems(items []*DeclItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		if len(it.Dims) == 0 {
			parts[i] = it.Name
		} else {
			dims := make([]string, len(it.Dims))
			for j, d := range it.Dims {
				dims[j] = p.expr(d)
			}
			parts[i] = fmt.Sprintf("%s(%s)", it.Name, strings.Join(dims, ", "))
		}
	}
	return strings.Join(parts, ", ")
}

func (p *printer) decl(indent int, d Decl) {
	switch x := d.(type) {
	case *VarDecl:
		p.line(indent, "%s %s", x.Type, p.declItems(x.Items))
	case *CommonDecl:
		if x.Block == "" {
			// Blank COMMON has no "//" form in the grammar.
			p.line(indent, "COMMON %s", p.declItems(x.Items))
		} else {
			p.line(indent, "COMMON /%s/ %s", x.Block, p.declItems(x.Items))
		}
	case *ParamDecl:
		parts := make([]string, len(x.Names))
		for i := range x.Names {
			parts[i] = fmt.Sprintf("%s = %s", x.Names[i], p.expr(x.Values[i]))
		}
		p.line(indent, "PARAMETER (%s)", strings.Join(parts, ", "))
	case *DimensionDecl:
		p.line(indent, "DIMENSION %s", p.declItems(x.Items))
	case *DataDecl:
		vals := make([]string, len(x.Values))
		for i, v := range x.Values {
			vals[i] = p.expr(v)
		}
		p.line(indent, "DATA %s / %s /", strings.Join(x.Names, ", "), strings.Join(vals, ", "))
	}
}

func (p *printer) stmt(indent int, s Stmt) {
	lbl := ""
	if s.Label() != "" {
		lbl = s.Label() + " "
	}
	switch x := s.(type) {
	case *AssignStmt:
		p.line(indent, "%s%s = %s", lbl, p.lhsString(x.Lhs), p.expr(x.Rhs))
	case *CallStmt:
		p.line(indent, "%sCALL %s(%s)", lbl, x.Name, p.exprList(x.Args))
	case *IfStmt:
		if x.Logical && len(x.Then) == 1 && len(x.ElseIfs) == 0 && len(x.Else) == 0 {
			inner := p.stmtString(x.Then[0])
			p.line(indent, "%sIF (%s) %s", lbl, p.expr(x.Cond), strings.TrimSpace(inner))
			return
		}
		p.line(indent, "%sIF (%s) THEN", lbl, p.expr(x.Cond))
		for _, t := range x.Then {
			p.stmt(indent+1, t)
		}
		for _, ei := range x.ElseIfs {
			p.line(indent, "ELSEIF (%s) THEN", p.expr(ei.Cond))
			for _, t := range ei.Body {
				p.stmt(indent+1, t)
			}
		}
		if len(x.Else) > 0 {
			p.line(indent, "ELSE")
			for _, t := range x.Else {
				p.stmt(indent+1, t)
			}
		}
		p.line(indent, "ENDIF")
	case *DoStmt:
		step := ""
		if x.Step != nil {
			step = ", " + p.expr(x.Step)
		}
		if x.EndLabel != "" {
			p.line(indent, "%sDO %s %s = %s, %s%s", lbl, x.EndLabel, x.Var, p.expr(x.From), p.expr(x.To), step)
			for _, t := range x.Body {
				p.stmt(indent+1, t)
			}
			// The terminating CONTINUE is part of Body in parsed form; if
			// the body does not end with the labeled terminator, emit one.
			if !endsWithLabel(x.Body, x.EndLabel) {
				p.line(indent, "%s CONTINUE", x.EndLabel)
			}
		} else {
			p.line(indent, "%sDO %s = %s, %s%s", lbl, x.Var, p.expr(x.From), p.expr(x.To), step)
			for _, t := range x.Body {
				p.stmt(indent+1, t)
			}
			p.line(indent, "ENDDO")
		}
	case *GotoStmt:
		p.line(indent, "%sGOTO %s", lbl, x.Target)
	case *ComputedGotoStmt:
		p.line(indent, "%sGOTO (%s), %s", lbl, strings.Join(x.Targets, ", "), p.expr(x.Index))
	case *ArithIfStmt:
		p.line(indent, "%sIF (%s) %s, %s, %s", lbl, p.expr(x.Expr), x.LtLabel, x.EqLabel, x.GtLabel)
	case *ContinueStmt:
		p.line(indent, "%sCONTINUE", lbl)
	case *ReturnStmt:
		p.line(indent, "%sRETURN", lbl)
	case *StopStmt:
		p.line(indent, "%sSTOP", lbl)
	case *ReadStmt:
		p.line(indent, "%sREAD *, %s", lbl, p.readTargets(x.Args))
	case *PrintStmt:
		p.line(indent, "%sPRINT *, %s", lbl, p.exprList(x.Args))
	}
}

func endsWithLabel(body []Stmt, label string) bool {
	return len(body) > 0 && body[len(body)-1].Label() == label
}

func (p *printer) exprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = p.expr(e)
	}
	return strings.Join(parts, ", ")
}

// precedence levels for minimal parenthesization, highest binds tightest.
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpOr:
			return 1
		case OpAnd:
			return 2
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return 4
		case OpAdd, OpSub:
			return 5
		case OpMul, OpDiv:
			return 6
		case OpPow:
			return 7
		}
	case *Unary:
		if x.Op == OpNot {
			return 3
		}
		return 5 // unary minus binds like +/- term
	}
	return 10 // atoms
}

func writeExpr(b *strings.Builder, e Expr, outerPrec int, repl map[Expr]string) {
	if repl != nil {
		if txt, ok := repl[e]; ok {
			b.WriteString(txt)
			return
		}
	}
	prec := exprPrec(e)
	paren := prec < outerPrec
	if paren {
		b.WriteByte('(')
	}
	switch x := e.(type) {
	case *IntLit:
		fmt.Fprintf(b, "%d", x.Value)
	case *RealLit:
		if x.Text != "" {
			b.WriteString(x.Text)
		} else {
			fmt.Fprintf(b, "%g", x.Value)
		}
	case *LogLit:
		if x.Value {
			b.WriteString(".TRUE.")
		} else {
			b.WriteString(".FALSE.")
		}
	case *StrLit:
		fmt.Fprintf(b, "'%s'", strings.ReplaceAll(x.Value, "'", "''"))
	case *Ident:
		b.WriteString(x.Name)
	case *Apply:
		b.WriteString(x.Name)
		b.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a, 0, repl)
		}
		b.WriteByte(')')
	case *Unary:
		if x.Op == OpNot {
			b.WriteString(".NOT. ")
		} else {
			b.WriteString("-")
		}
		writeExpr(b, x.X, prec+1, repl)
	case *Binary:
		writeExpr(b, x.X, prec, repl)
		switch {
		case x.Op.IsRelational() || x.Op.IsLogical():
			fmt.Fprintf(b, " %s ", x.Op)
		case x.Op == OpAdd || x.Op == OpSub:
			fmt.Fprintf(b, " %s ", x.Op)
		default:
			b.WriteString(x.Op.String())
		}
		// The right operand of an arithmetic binary is always rendered at
		// strictly higher precedence: this preserves left associativity
		// for -, /, ** and guarantees a unary minus can never directly
		// follow an operator (`X + -3` is not valid FORTRAN), even when
		// it is buried at the head of an equal-precedence subexpression.
		rp := prec
		if x.Op.IsArith() {
			rp = prec + 1
		}
		writeExpr(b, x.Y, rp, repl)
	}
	if paren {
		b.WriteByte(')')
	}
}
