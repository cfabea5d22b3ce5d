// Package ast defines the abstract syntax tree for F77s program units.
//
// A design note on FORTRAN's classic ambiguity: at parse time `A(I)` may
// be either an array element or a function call. The parser produces an
// Apply node for both; semantic analysis (package sem) resolves each
// Apply into an array reference or a call once declarations are known.
package ast

import "repro/internal/source"

// Node is implemented by every AST node.
type Node interface {
	Pos() source.Position
}

// ---------------------------------------------------------------------
// Program structure

// File is a parsed source file: a sequence of program units.
type File struct {
	Source *source.File
	Units  []*Unit
}

// Pos returns the position of the first unit.
func (f *File) Pos() source.Position {
	if len(f.Units) > 0 {
		return f.Units[0].Pos()
	}
	return source.Position{File: f.Source.Name, Line: 1, Col: 1}
}

// UnitKind distinguishes the three kinds of program unit.
type UnitKind int

const (
	ProgramUnit UnitKind = iota
	SubroutineUnit
	FunctionUnit
)

func (k UnitKind) String() string {
	switch k {
	case ProgramUnit:
		return "PROGRAM"
	case SubroutineUnit:
		return "SUBROUTINE"
	default:
		return "FUNCTION"
	}
}

// Unit is one program unit: the main program, a subroutine, or a
// function.
type Unit struct {
	Position source.Position
	Kind     UnitKind
	Name     string
	Params   []*Param // formal parameters, in declaration order
	Result   BaseType // function result type (TypeNone otherwise)
	Decls    []Decl
	Body     []Stmt
	// NumExprs bounds the unit's expression numbers: every expression
	// node the parser built for the unit has 0 < ID < NumExprs.
	NumExprs int
}

func (u *Unit) Pos() source.Position { return u.Position }

// Param is a formal parameter name as written in the unit header.
type Param struct {
	Position source.Position
	Name     string
}

func (p *Param) Pos() source.Position { return p.Position }

// ---------------------------------------------------------------------
// Types

// BaseType is a scalar F77s type. One byte, so per-expression type
// tables and SSA values stay small.
type BaseType uint8

const (
	TypeNone BaseType = iota
	TypeInteger
	TypeReal
	TypeLogical
)

func (t BaseType) String() string {
	switch t {
	case TypeInteger:
		return "INTEGER"
	case TypeReal:
		return "REAL"
	case TypeLogical:
		return "LOGICAL"
	default:
		return "<none>"
	}
}

// ---------------------------------------------------------------------
// Declarations

// Decl is a declaration statement in a unit's specification part.
type Decl interface {
	Node
	declNode()
}

// VarDecl declares one or more variables of a base type, e.g.
// `INTEGER I, A(10), B(N, 3)`.
type VarDecl struct {
	Position source.Position
	Type     BaseType
	Items    []*DeclItem
}

// DeclItem is one declarator: a name with optional array dimensions.
type DeclItem struct {
	Position source.Position
	Name     string
	Dims     []Expr // nil for scalars
}

// CommonDecl places variables in a named COMMON block, e.g.
// `COMMON /GRID/ N, M, H(100)`.
type CommonDecl struct {
	Position source.Position
	Block    string // block name; "" for blank common
	Items    []*DeclItem
}

// ParamDecl is a PARAMETER statement: named compile-time constants, e.g.
// `PARAMETER (N = 100, M = N*2)`.
type ParamDecl struct {
	Position source.Position
	Names    []string
	Values   []Expr
}

// DimensionDecl is a DIMENSION statement giving array bounds to names
// typed elsewhere (or implicitly), e.g. `DIMENSION A(10), B(N)`.
type DimensionDecl struct {
	Position source.Position
	Items    []*DeclItem
}

// DataDecl is a DATA statement initializing variables, e.g.
// `DATA N, M / 3, 4 /`.
type DataDecl struct {
	Position source.Position
	Names    []string
	Values   []Expr
}

func (d *VarDecl) Pos() source.Position       { return d.Position }
func (d *CommonDecl) Pos() source.Position    { return d.Position }
func (d *ParamDecl) Pos() source.Position     { return d.Position }
func (d *DimensionDecl) Pos() source.Position { return d.Position }
func (d *DataDecl) Pos() source.Position      { return d.Position }
func (d *DeclItem) Pos() source.Position      { return d.Position }

func (*VarDecl) declNode()       {}
func (*CommonDecl) declNode()    {}
func (*ParamDecl) declNode()     {}
func (*DimensionDecl) declNode() {}
func (*DataDecl) declNode()      {}

// ---------------------------------------------------------------------
// Statements

// Stmt is an executable statement. Every statement may carry a numeric
// label (the target of GOTOs and DO terminations).
type Stmt interface {
	Node
	stmtNode()
	// Label returns the statement's numeric label, or "" if unlabeled.
	Label() string
	// SetLabel attaches a numeric label.
	SetLabel(string)
}

// StmtBase provides position and label storage for statements.
type StmtBase struct {
	Position source.Position
	Lbl      string
}

func (s *StmtBase) Pos() source.Position { return s.Position }
func (s *StmtBase) Label() string        { return s.Lbl }
func (s *StmtBase) SetLabel(l string)    { s.Lbl = l }

// AssignStmt is `lhs = rhs`. Lhs is an Ident or an Apply (array element).
type AssignStmt struct {
	StmtBase
	Lhs Expr
	Rhs Expr
}

// CallStmt is `CALL name(args...)`.
type CallStmt struct {
	StmtBase
	Name string
	Args []Expr
}

// ElseIfClause is one ELSEIF arm of a block IF.
type ElseIfClause struct {
	Position source.Position
	Cond     Expr
	Body     []Stmt
}

// IfStmt is a block IF/THEN/ELSEIF/ELSE/ENDIF. A logical IF
// (`IF (e) stmt`) parses as an IfStmt whose Then holds one statement and
// whose Logical flag is set.
type IfStmt struct {
	StmtBase
	Cond    Expr
	Then    []Stmt
	ElseIfs []*ElseIfClause
	Else    []Stmt
	Logical bool
}

// DoStmt is a DO loop, either label-terminated (`DO 10 I = 1, N` ...
// `10 CONTINUE`) or ENDDO-terminated. After parsing, the body always
// holds the loop's statements; EndLabel records the terminating label if
// one was used.
type DoStmt struct {
	StmtBase
	Var      string
	From     Expr
	To       Expr
	Step     Expr // nil means step 1
	Body     []Stmt
	EndLabel string // "" when ENDDO-terminated
}

// GotoStmt is `GOTO label`.
type GotoStmt struct {
	StmtBase
	Target string
}

// ComputedGotoStmt is `GOTO (l1, l2, …), e`: control transfers to the
// e-th label when 1 ≤ e ≤ n, and falls through otherwise (F77 §11.2).
type ComputedGotoStmt struct {
	StmtBase
	Targets []string
	Index   Expr
}

// ArithIfStmt is the classic three-way arithmetic IF,
// `IF (e) l1, l2, l3`: control transfers to LtLabel/EqLabel/GtLabel
// when e is negative/zero/positive (F77 §11.4).
type ArithIfStmt struct {
	StmtBase
	Expr    Expr
	LtLabel string
	EqLabel string
	GtLabel string
}

// ContinueStmt is `CONTINUE` (a no-op, usually a label carrier).
type ContinueStmt struct {
	StmtBase
}

// ReturnStmt is `RETURN`.
type ReturnStmt struct {
	StmtBase
}

// StopStmt is `STOP`.
type StopStmt struct {
	StmtBase
}

// ReadStmt is `READ *, vars...`: assigns runtime input to each lvalue.
type ReadStmt struct {
	StmtBase
	Args []Expr
}

// PrintStmt is `PRINT *, exprs...` or `WRITE (*,*) exprs...`.
type PrintStmt struct {
	StmtBase
	Args []Expr
}

func (*AssignStmt) stmtNode()       {}
func (*CallStmt) stmtNode()         {}
func (*IfStmt) stmtNode()           {}
func (*DoStmt) stmtNode()           {}
func (*GotoStmt) stmtNode()         {}
func (*ComputedGotoStmt) stmtNode() {}
func (*ArithIfStmt) stmtNode()      {}
func (*ContinueStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode()       {}
func (*StopStmt) stmtNode()         {}
func (*ReadStmt) stmtNode()         {}
func (*PrintStmt) stmtNode()        {}

// ---------------------------------------------------------------------
// Expressions

// Expr is an expression node.
//
// Every node carries a unit-local expression number, dense from 1: the
// parser numbers a unit's nodes and records the bound in
// Unit.NumExprs, and the CFG builder numbers the nodes it synthesizes
// after those. Later phases index per-procedure tables by the number
// instead of hashing node pointers. Number 0 means "unnumbered"; no
// table stores it.
type Expr interface {
	Node
	// ExprID returns the node's expression number (0 if unnumbered).
	ExprID() int
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	Position source.Position
	ID       int
	Value    int64
}

// RealLit is a real literal; Text preserves the original spelling.
type RealLit struct {
	Position source.Position
	ID       int
	Value    float64
	Text     string
}

// LogLit is `.TRUE.` or `.FALSE.`.
type LogLit struct {
	Position source.Position
	ID       int
	Value    bool
}

// StrLit is a character literal (only printable; not a propagated type).
type StrLit struct {
	Position source.Position
	ID       int
	Value    string
}

// Ident is a bare name: a scalar variable, a PARAMETER constant, or —
// when used as an actual argument — a procedure name.
type Ident struct {
	Position source.Position
	ID       int
	Name     string
}

// Apply is `NAME(args...)`: an array element or a function call,
// disambiguated by package sem.
type Apply struct {
	Position source.Position
	ID       int
	Name     string
	Args     []Expr
}

// Op is an expression operator. One byte, like BaseType.
type Op uint8

const (
	OpAdd Op = iota // +
	OpSub           // -
	OpMul           // *
	OpDiv           // /
	OpPow           // **
	OpNeg           // unary -
	OpEq            // .EQ.
	OpNe            // .NE.
	OpLt            // .LT.
	OpLe            // .LE.
	OpGt            // .GT.
	OpGe            // .GE.
	OpAnd           // .AND.
	OpOr            // .OR.
	OpNot           // .NOT.
)

var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpPow: "**",
	OpNeg: "-", OpEq: ".EQ.", OpNe: ".NE.", OpLt: ".LT.", OpLe: ".LE.",
	OpGt: ".GT.", OpGe: ".GE.", OpAnd: ".AND.", OpOr: ".OR.", OpNot: ".NOT.",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "?"
}

// IsRelational reports whether the operator compares two values.
func (o Op) IsRelational() bool { return o >= OpEq && o <= OpGe }

// IsLogical reports whether the operator is boolean-valued on booleans.
func (o Op) IsLogical() bool { return o == OpAnd || o == OpOr || o == OpNot }

// IsArith reports whether the operator is arithmetic.
func (o Op) IsArith() bool { return o <= OpNeg }

// Unary is a unary operation (OpNeg or OpNot).
type Unary struct {
	Position source.Position
	ID       int
	Op       Op
	X        Expr
}

// Binary is a binary operation.
type Binary struct {
	Position source.Position
	ID       int
	Op       Op
	X, Y     Expr
}

func (e *IntLit) Pos() source.Position  { return e.Position }
func (e *RealLit) Pos() source.Position { return e.Position }
func (e *LogLit) Pos() source.Position  { return e.Position }
func (e *StrLit) Pos() source.Position  { return e.Position }
func (e *Ident) Pos() source.Position   { return e.Position }
func (e *Apply) Pos() source.Position   { return e.Position }
func (e *Unary) Pos() source.Position   { return e.Position }
func (e *Binary) Pos() source.Position  { return e.Position }

func (e *IntLit) ExprID() int  { return e.ID }
func (e *RealLit) ExprID() int { return e.ID }
func (e *LogLit) ExprID() int  { return e.ID }
func (e *StrLit) ExprID() int  { return e.ID }
func (e *Ident) ExprID() int   { return e.ID }
func (e *Apply) ExprID() int   { return e.ID }
func (e *Unary) ExprID() int   { return e.ID }
func (e *Binary) ExprID() int  { return e.ID }

func (*IntLit) exprNode()  {}
func (*RealLit) exprNode() {}
func (*LogLit) exprNode()  {}
func (*StrLit) exprNode()  {}
func (*Ident) exprNode()   {}
func (*Apply) exprNode()   {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}

// ---------------------------------------------------------------------
// Traversal helpers

// WalkExpr calls fn on e and all its subexpressions, preorder. If fn
// returns false the walk does not descend into that node's children.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Apply:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.X, fn)
		WalkExpr(x.Y, fn)
	}
}

// WalkStmts calls fn on every statement in the list and, recursively, on
// the bodies of compound statements. If fn returns false the walk does
// not descend into that statement's nested bodies.
func WalkStmts(stmts []Stmt, fn func(Stmt) bool) {
	for _, s := range stmts {
		if !fn(s) {
			continue
		}
		switch x := s.(type) {
		case *IfStmt:
			WalkStmts(x.Then, fn)
			for _, ei := range x.ElseIfs {
				WalkStmts(ei.Body, fn)
			}
			WalkStmts(x.Else, fn)
		case *DoStmt:
			WalkStmts(x.Body, fn)
		}
	}
}

// ExprsOf returns the expressions directly contained in a statement
// (conditions, operands, arguments), without descending into nested
// statement bodies.
func ExprsOf(s Stmt) []Expr {
	switch x := s.(type) {
	case *AssignStmt:
		return []Expr{x.Lhs, x.Rhs}
	case *CallStmt:
		return x.Args
	case *IfStmt:
		es := []Expr{x.Cond}
		for _, ei := range x.ElseIfs {
			es = append(es, ei.Cond)
		}
		return es
	case *DoStmt:
		es := []Expr{x.From, x.To}
		if x.Step != nil {
			es = append(es, x.Step)
		}
		return es
	case *ReadStmt:
		return x.Args
	case *PrintStmt:
		return x.Args
	case *ComputedGotoStmt:
		return []Expr{x.Index}
	case *ArithIfStmt:
		return []Expr{x.Expr}
	}
	return nil
}
