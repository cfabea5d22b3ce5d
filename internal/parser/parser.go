// Package parser turns F77s tokens into the AST of package ast. It is a
// straightforward recursive-descent parser; statements are line-oriented
// so error recovery simply skips to the next line.
package parser

import (
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/guard"
	"repro/internal/lexer"
	"repro/internal/source"
)

// Hardening limits. Arbitrary input must never exhaust the stack or
// pin the front end: oversized files are rejected with a diagnostic,
// and nesting beyond MaxNestingDepth degrades to placeholder
// expressions (the recursion stops; each capped parse still consumes a
// token, so termination is guaranteed).
const (
	// MaxSourceBytes is the largest source file the parser accepts.
	MaxSourceBytes = 4 << 20
	// MaxNestingDepth bounds combined expression and block-statement
	// nesting. It also protects every downstream tree walker (sem,
	// writer, symbolic construction), which recurse over the AST.
	MaxNestingDepth = 500
)

// ParseFile lexes and parses one source file. Diagnostics go to diags;
// the returned file contains every unit that parsed well enough to keep.
func ParseFile(file *source.File, diags *source.ErrorList) *ast.File {
	defer guard.Repanic("parse")
	guard.InjectPanic("parse")
	if len(file.Content) > MaxSourceBytes {
		diags.Errorf(file.Pos(0), "source exceeds %d bytes (%d); refusing to parse", MaxSourceBytes, len(file.Content))
		return &ast.File{Source: file}
	}
	p := &parser{
		cur:   file.Cursor(),
		toks:  lexer.Tokenize(file, diags),
		diags: diags,
	}
	f := &ast.File{Source: file}
	for !p.at(lexer.EOF) {
		u := p.unit()
		if u != nil {
			f.Units = append(f.Units, u)
		}
	}
	return f
}

// ParseSource is a convenience wrapper for parsing from a string.
func ParseSource(name, src string, diags *source.ErrorList) *ast.File {
	return ParseFile(source.NewFile(name, src), diags)
}

type parser struct {
	// cur resolves token offsets, which arrive in ascending order.
	cur   source.Cursor
	toks  []lexer.Token
	i     int
	diags *source.ErrorList

	depth    int  // current expression/block nesting
	depthErr bool // depth diagnostic already emitted (report once)

	// nextExpr is the next expression number of the unit being parsed
	// (ast.Expr's ExprID): numbering restarts at 1 for every unit.
	nextExpr int

	// Slab arenas for the hottest AST nodes. An AST lives and dies as a
	// unit, so chunked slabs cut one heap allocation per expression node
	// down to one per chunk without changing lifetimes.
	identArena []ast.Ident
	intArena   []ast.IntLit
	binArena   []ast.Binary
	argSlab    []ast.Expr
}

// astChunk is the parser slab chunk size.
const astChunk = 128

// num hands out the next expression number of the current unit.
func (p *parser) num() int {
	n := p.nextExpr
	p.nextExpr++
	return n
}

func (p *parser) newIdent(pos source.Position, name string) *ast.Ident {
	if len(p.identArena) == cap(p.identArena) {
		p.identArena = make([]ast.Ident, 0, astChunk)
	}
	p.identArena = append(p.identArena, ast.Ident{Position: pos, ID: p.num(), Name: name})
	return &p.identArena[len(p.identArena)-1]
}

func (p *parser) newIntLit(pos source.Position, v int64) *ast.IntLit {
	if len(p.intArena) == cap(p.intArena) {
		p.intArena = make([]ast.IntLit, 0, astChunk)
	}
	p.intArena = append(p.intArena, ast.IntLit{Position: pos, ID: p.num(), Value: v})
	return &p.intArena[len(p.intArena)-1]
}

func (p *parser) newBinary(pos source.Position, op ast.Op, x, y ast.Expr) *ast.Binary {
	if len(p.binArena) == cap(p.binArena) {
		p.binArena = make([]ast.Binary, 0, astChunk)
	}
	p.binArena = append(p.binArena, ast.Binary{Position: pos, ID: p.num(), Op: op, X: x, Y: y})
	return &p.binArena[len(p.binArena)-1]
}

func (p *parser) newUnary(pos source.Position, op ast.Op, x ast.Expr) *ast.Unary {
	return &ast.Unary{Position: pos, ID: p.num(), Op: op, X: x}
}

// argAppend appends to an argument list, seeding empty lists with a
// capacity-2 window of a shared slab (most argument lists hold one or
// two entries; longer ones fall back to a normal append).
func (p *parser) argAppend(s []ast.Expr, x ast.Expr) []ast.Expr {
	if s == nil {
		if len(p.argSlab)+2 > cap(p.argSlab) {
			p.argSlab = make([]ast.Expr, 0, 4*astChunk)
		}
		lo := len(p.argSlab)
		p.argSlab = p.argSlab[:lo+2]
		s = p.argSlab[lo : lo : lo+2]
	}
	return append(s, x)
}

// nested runs f one nesting level deeper. Past MaxNestingDepth it stops
// recursing: it reports the overflow once, consumes one token (progress
// guarantee), and yields a placeholder zero so parsing can continue.
func (p *parser) nested(f func() ast.Expr) ast.Expr {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > MaxNestingDepth {
		if !p.depthErr {
			p.depthErr = true
			p.errorf("nesting exceeds %d levels", MaxNestingDepth)
		}
		pos := p.pos()
		if !p.at(lexer.NEWLINE) && !p.at(lexer.EOF) {
			p.next()
		}
		return p.newIntLit(pos, 0)
	}
	return f()
}

func (p *parser) tok() lexer.Token     { return p.toks[p.i] }
func (p *parser) at(k lexer.Kind) bool { return p.toks[p.i].Kind == k }
func (p *parser) peek(n int) lexer.Token {
	j := p.i + n
	if j >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[j]
}

func (p *parser) next() lexer.Token {
	t := p.toks[p.i]
	if t.Kind != lexer.EOF {
		p.i++
	}
	return t
}

func (p *parser) pos() source.Position { return p.cur.Pos(p.tok().Offset) }

func (p *parser) errorf(format string, args ...interface{}) {
	p.diags.Errorf(p.pos(), format, args...)
}

// expect consumes a token of kind k or reports an error.
func (p *parser) expect(k lexer.Kind) lexer.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.tok())
	return lexer.Token{Kind: k, Offset: p.tok().Offset}
}

// endOfLine consumes the statement terminator (NEWLINE or EOF) and
// reports stray tokens before it.
func (p *parser) endOfLine() {
	if p.at(lexer.NEWLINE) {
		p.next()
		return
	}
	if p.at(lexer.EOF) {
		return
	}
	p.errorf("unexpected %s at end of statement", p.tok())
	p.skipLine()
}

// skipLine discards tokens through the next NEWLINE.
func (p *parser) skipLine() {
	for !p.at(lexer.NEWLINE) && !p.at(lexer.EOF) {
		p.next()
	}
	if p.at(lexer.NEWLINE) {
		p.next()
	}
}

// ---------------------------------------------------------------------
// Program units

func (p *parser) unit() *ast.Unit {
	// Skip stray newlines between units.
	for p.at(lexer.NEWLINE) {
		p.next()
	}
	if p.at(lexer.EOF) {
		return nil
	}
	p.nextExpr = 1
	u := &ast.Unit{Position: p.pos()}
	switch {
	case p.at(lexer.KwProgram):
		p.next()
		u.Kind = ast.ProgramUnit
		u.Name = p.expect(lexer.IDENT).Text
		p.endOfLine()
	case p.at(lexer.KwSubroutine):
		p.next()
		u.Kind = ast.SubroutineUnit
		u.Name = p.expect(lexer.IDENT).Text
		u.Params = p.paramList()
		p.endOfLine()
	case p.at(lexer.KwInteger) || p.at(lexer.KwReal) || p.at(lexer.KwLogical) || p.at(lexer.KwDouble):
		// Typed FUNCTION header, e.g. `INTEGER FUNCTION F(X)`.
		bt := p.baseType()
		if !p.at(lexer.KwFunction) {
			p.errorf("expected FUNCTION after type in unit header (declarations belong inside a unit)")
			p.skipLine()
			return nil
		}
		p.next()
		u.Kind = ast.FunctionUnit
		u.Result = bt
		u.Name = p.expect(lexer.IDENT).Text
		u.Params = p.paramList()
		p.endOfLine()
	case p.at(lexer.KwFunction):
		p.next()
		u.Kind = ast.FunctionUnit
		u.Result = ast.TypeInteger // default: integer-valued function
		u.Name = p.expect(lexer.IDENT).Text
		u.Params = p.paramList()
		p.endOfLine()
	default:
		p.errorf("expected PROGRAM, SUBROUTINE, or FUNCTION, found %s", p.tok())
		p.skipLine()
		return nil
	}

	u.Decls = p.declarations()
	u.Body = p.stmtList(endUnit)
	u.NumExprs = p.nextExpr
	// Consume the END line.
	if p.at(lexer.KwEnd) {
		p.next()
		p.endOfLine()
	} else {
		p.errorf("expected END of %s %s, found %s", u.Kind, u.Name, p.tok())
	}
	return u
}

func (p *parser) paramList() []*ast.Param {
	var ps []*ast.Param
	if !p.at(lexer.LPAREN) {
		return ps
	}
	p.next()
	if p.at(lexer.RPAREN) {
		p.next()
		return ps
	}
	for {
		t := p.expect(lexer.IDENT)
		ps = append(ps, &ast.Param{Position: p.cur.Pos(t.Offset), Name: t.Text})
		if !p.at(lexer.COMMA) {
			break
		}
		p.next()
	}
	p.expect(lexer.RPAREN)
	return ps
}

func (p *parser) baseType() ast.BaseType {
	switch p.tok().Kind {
	case lexer.KwInteger:
		p.next()
		return ast.TypeInteger
	case lexer.KwReal:
		p.next()
		return ast.TypeReal
	case lexer.KwLogical:
		p.next()
		return ast.TypeLogical
	case lexer.KwDouble:
		p.next()
		if p.at(lexer.KwPrecision) {
			p.next()
		} else {
			p.errorf("expected PRECISION after DOUBLE")
		}
		return ast.TypeReal
	}
	p.errorf("expected a type, found %s", p.tok())
	return ast.TypeNone
}

// ---------------------------------------------------------------------
// Declarations

func (p *parser) declarations() []ast.Decl {
	var decls []ast.Decl
	for {
		switch p.tok().Kind {
		case lexer.KwInteger, lexer.KwReal, lexer.KwLogical, lexer.KwDouble:
			pos := p.pos()
			bt := p.baseType()
			d := &ast.VarDecl{Position: pos, Type: bt, Items: p.declItemList()}
			p.endOfLine()
			decls = append(decls, d)
		case lexer.KwCommon:
			pos := p.pos()
			p.next()
			block := ""
			if p.at(lexer.SLASH) {
				p.next()
				block = p.expect(lexer.IDENT).Text
				p.expect(lexer.SLASH)
			}
			d := &ast.CommonDecl{Position: pos, Block: block, Items: p.declItemList()}
			p.endOfLine()
			decls = append(decls, d)
		case lexer.KwParameter:
			pos := p.pos()
			p.next()
			p.expect(lexer.LPAREN)
			d := &ast.ParamDecl{Position: pos}
			for {
				name := p.expect(lexer.IDENT).Text
				p.expect(lexer.ASSIGN)
				d.Names = append(d.Names, name)
				d.Values = append(d.Values, p.expr())
				if !p.at(lexer.COMMA) {
					break
				}
				p.next()
			}
			p.expect(lexer.RPAREN)
			p.endOfLine()
			decls = append(decls, d)
		case lexer.KwDimension:
			pos := p.pos()
			p.next()
			d := &ast.DimensionDecl{Position: pos, Items: p.declItemList()}
			p.endOfLine()
			decls = append(decls, d)
		case lexer.KwData:
			pos := p.pos()
			p.next()
			d := &ast.DataDecl{Position: pos}
			for {
				d.Names = append(d.Names, p.expect(lexer.IDENT).Text)
				if !p.at(lexer.COMMA) {
					break
				}
				p.next()
			}
			p.expect(lexer.SLASH)
			// DATA values are signed constants, not general expressions:
			// a full expression parse would read the closing '/' as
			// division.
			for {
				d.Values = append(d.Values, p.signedConstant())
				if !p.at(lexer.COMMA) {
					break
				}
				p.next()
			}
			p.expect(lexer.SLASH)
			p.endOfLine()
			decls = append(decls, d)
		default:
			return decls
		}
	}
}

func (p *parser) declItemList() []*ast.DeclItem {
	var items []*ast.DeclItem
	for {
		t := p.expect(lexer.IDENT)
		it := &ast.DeclItem{Position: p.cur.Pos(t.Offset), Name: t.Text}
		if p.at(lexer.LPAREN) {
			p.next()
			for {
				it.Dims = append(it.Dims, p.expr())
				if !p.at(lexer.COMMA) {
					break
				}
				p.next()
			}
			p.expect(lexer.RPAREN)
		}
		items = append(items, it)
		if !p.at(lexer.COMMA) {
			return items
		}
		p.next()
	}
}

// ---------------------------------------------------------------------
// Statements

// stopSet tells stmtList which keywords end the current statement block
// without being consumed.
type stopSet int

const (
	endUnit stopSet = iota // stop at END (unit terminator)
	endIf                  // stop at ELSEIF / ELSE / ENDIF / END IF
	endDo                  // stop at ENDDO / END DO
)

// atBlockEnd reports whether the current token ends the block described
// by stop. It must not consume anything.
func (p *parser) atBlockEnd(stop stopSet) bool {
	if p.at(lexer.EOF) {
		return true
	}
	switch stop {
	case endIf:
		if p.at(lexer.KwElse) || p.at(lexer.KwElseIf) || p.at(lexer.KwEndIf) {
			return true
		}
		// "END IF" written as two words.
		if p.at(lexer.KwEnd) && p.peek(1).Kind == lexer.KwIf {
			return true
		}
	case endDo:
		if p.at(lexer.KwEndDo) {
			return true
		}
		if p.at(lexer.KwEnd) && p.peek(1).Kind == lexer.KwDo {
			return true
		}
	}
	// A bare END always terminates (possibly with a missing-ENDIF error
	// reported by the caller's expect).
	if p.at(lexer.KwEnd) && p.peek(1).Kind != lexer.KwIf && p.peek(1).Kind != lexer.KwDo {
		return true
	}
	return false
}

func (p *parser) stmtList(stop stopSet) []ast.Stmt {
	var stmts []ast.Stmt
	for {
		for p.at(lexer.NEWLINE) {
			p.next()
		}
		if p.atBlockEnd(stop) {
			return stmts
		}
		s := p.statement()
		if s != nil {
			stmts = append(stmts, s)
		}
	}
}

// statement parses one labeled or unlabeled statement line.
func (p *parser) statement() ast.Stmt {
	label := ""
	if p.at(lexer.LABEL) {
		label = p.next().Text
	}
	s := p.simpleOrCompound()
	if s != nil && label != "" {
		s.SetLabel(label)
	}
	return s
}

func (p *parser) simpleOrCompound() ast.Stmt {
	pos := p.pos()
	switch p.tok().Kind {
	case lexer.KwIf, lexer.KwDo:
		// Block statements recurse into stmtList; cap their nesting with
		// the same counter as expressions.
		p.depth++
		defer func() { p.depth-- }()
		if p.depth > MaxNestingDepth {
			if !p.depthErr {
				p.depthErr = true
				p.errorf("nesting exceeds %d levels", MaxNestingDepth)
			}
			p.skipLine()
			return nil
		}
		if p.at(lexer.KwIf) {
			return p.ifStmt(pos)
		}
		return p.doStmt(pos)
	default:
		s := p.simpleStmt(pos)
		if s != nil {
			p.endOfLine()
		}
		return s
	}
}

// simpleStmt parses a statement that fits on one line (no THEN blocks or
// DO bodies). It does not consume the end of line.
func (p *parser) simpleStmt(pos source.Position) ast.Stmt {
	switch p.tok().Kind {
	case lexer.KwCall:
		p.next()
		name := p.expect(lexer.IDENT).Text
		s := &ast.CallStmt{StmtBase: ast.StmtBase{Position: pos}, Name: name}
		if p.at(lexer.LPAREN) {
			p.next()
			if !p.at(lexer.RPAREN) {
				for {
					s.Args = append(s.Args, p.expr())
					if !p.at(lexer.COMMA) {
						break
					}
					p.next()
				}
			}
			p.expect(lexer.RPAREN)
		}
		return s
	case lexer.KwGoto:
		p.next()
		if p.at(lexer.LPAREN) {
			// Computed GOTO: GOTO (l1, l2, ...), e
			p.next()
			s := &ast.ComputedGotoStmt{StmtBase: ast.StmtBase{Position: pos}}
			for {
				t := p.expect(lexer.INTLIT)
				s.Targets = append(s.Targets, t.Text)
				if !p.at(lexer.COMMA) {
					break
				}
				p.next()
			}
			p.expect(lexer.RPAREN)
			if p.at(lexer.COMMA) {
				p.next()
			}
			s.Index = p.expr()
			return s
		}
		t := p.expect(lexer.INTLIT)
		return &ast.GotoStmt{StmtBase: ast.StmtBase{Position: pos}, Target: t.Text}
	case lexer.KwContinue:
		p.next()
		return &ast.ContinueStmt{StmtBase: ast.StmtBase{Position: pos}}
	case lexer.KwReturn:
		p.next()
		return &ast.ReturnStmt{StmtBase: ast.StmtBase{Position: pos}}
	case lexer.KwStop:
		p.next()
		// Optional stop code, ignored.
		if p.at(lexer.INTLIT) || p.at(lexer.STRING) {
			p.next()
		}
		return &ast.StopStmt{StmtBase: ast.StmtBase{Position: pos}}
	case lexer.KwRead:
		p.next()
		p.ioControl()
		s := &ast.ReadStmt{StmtBase: ast.StmtBase{Position: pos}}
		for {
			s.Args = append(s.Args, p.expr())
			if !p.at(lexer.COMMA) {
				break
			}
			p.next()
		}
		return s
	case lexer.KwPrint, lexer.KwWrite:
		p.next()
		p.ioControl()
		s := &ast.PrintStmt{StmtBase: ast.StmtBase{Position: pos}}
		if !p.at(lexer.NEWLINE) && !p.at(lexer.EOF) {
			for {
				s.Args = append(s.Args, p.expr())
				if !p.at(lexer.COMMA) {
					break
				}
				p.next()
			}
		}
		return s
	case lexer.IDENT:
		// Assignment: IDENT [ (subscripts) ] = expr
		lhs := p.primary()
		switch lhs.(type) {
		case *ast.Ident, *ast.Apply:
			// ok as assignment targets
		default:
			p.errorf("invalid assignment target")
		}
		p.expect(lexer.ASSIGN)
		rhs := p.expr()
		return &ast.AssignStmt{StmtBase: ast.StmtBase{Position: pos}, Lhs: lhs, Rhs: rhs}
	}
	p.errorf("expected a statement, found %s", p.tok())
	p.skipLine()
	return nil
}

// ioControl consumes the control part of READ/PRINT/WRITE:
// `*`, `*,` or `(*,*)`.
func (p *parser) ioControl() {
	if p.at(lexer.LPAREN) { // WRITE (*,*) / READ (*,*)
		p.next()
		for !p.at(lexer.RPAREN) && !p.at(lexer.NEWLINE) && !p.at(lexer.EOF) {
			p.next()
		}
		p.expect(lexer.RPAREN)
		if p.at(lexer.COMMA) {
			p.next()
		}
		return
	}
	p.expect(lexer.STAR)
	if p.at(lexer.COMMA) {
		p.next()
	}
}

func (p *parser) ifStmt(pos source.Position) ast.Stmt {
	p.expect(lexer.KwIf)
	p.expect(lexer.LPAREN)
	cond := p.expr()
	p.expect(lexer.RPAREN)

	if p.at(lexer.INTLIT) {
		// Arithmetic IF: IF (e) l1, l2, l3.
		s := &ast.ArithIfStmt{StmtBase: ast.StmtBase{Position: pos}, Expr: cond}
		s.LtLabel = p.expect(lexer.INTLIT).Text
		p.expect(lexer.COMMA)
		s.EqLabel = p.expect(lexer.INTLIT).Text
		p.expect(lexer.COMMA)
		s.GtLabel = p.expect(lexer.INTLIT).Text
		p.endOfLine()
		return s
	}

	if p.at(lexer.KwThen) {
		// Block IF.
		p.next()
		p.endOfLine()
		s := &ast.IfStmt{StmtBase: ast.StmtBase{Position: pos}, Cond: cond}
		s.Then = p.stmtList(endIf)
		for {
			switch {
			case p.at(lexer.KwElseIf):
				eiPos := p.pos()
				p.next()
				p.expect(lexer.LPAREN)
				c := p.expr()
				p.expect(lexer.RPAREN)
				p.expect(lexer.KwThen)
				p.endOfLine()
				s.ElseIfs = append(s.ElseIfs, &ast.ElseIfClause{Position: eiPos, Cond: c, Body: p.stmtList(endIf)})
				continue
			case p.at(lexer.KwElse) && p.peek(1).Kind == lexer.KwIf:
				// "ELSE IF (...) THEN"
				eiPos := p.pos()
				p.next() // ELSE
				p.next() // IF
				p.expect(lexer.LPAREN)
				c := p.expr()
				p.expect(lexer.RPAREN)
				p.expect(lexer.KwThen)
				p.endOfLine()
				s.ElseIfs = append(s.ElseIfs, &ast.ElseIfClause{Position: eiPos, Cond: c, Body: p.stmtList(endIf)})
				continue
			case p.at(lexer.KwElse):
				p.next()
				p.endOfLine()
				s.Else = p.stmtList(endIf)
				continue
			}
			break
		}
		switch {
		case p.at(lexer.KwEndIf):
			p.next()
		case p.at(lexer.KwEnd) && p.peek(1).Kind == lexer.KwIf:
			p.next()
			p.next()
		default:
			p.errorf("expected ENDIF, found %s", p.tok())
		}
		p.endOfLine()
		return s
	}

	// Logical IF: one simple statement on the same line.
	inner := p.simpleStmt(p.pos())
	s := &ast.IfStmt{StmtBase: ast.StmtBase{Position: pos}, Cond: cond, Logical: true}
	if inner != nil {
		s.Then = []ast.Stmt{inner}
		p.endOfLine()
	}
	return s
}

func (p *parser) doStmt(pos source.Position) ast.Stmt {
	p.expect(lexer.KwDo)
	endLabel := ""
	if p.at(lexer.INTLIT) {
		endLabel = p.next().Text
	}
	v := p.expect(lexer.IDENT).Text
	p.expect(lexer.ASSIGN)
	from := p.expr()
	p.expect(lexer.COMMA)
	to := p.expr()
	var step ast.Expr
	if p.at(lexer.COMMA) {
		p.next()
		step = p.expr()
	}
	p.endOfLine()

	s := &ast.DoStmt{StmtBase: ast.StmtBase{Position: pos}, Var: v, From: from, To: to, Step: step, EndLabel: endLabel}
	if endLabel == "" {
		s.Body = p.stmtList(endDo)
		switch {
		case p.at(lexer.KwEndDo):
			p.next()
		case p.at(lexer.KwEnd) && p.peek(1).Kind == lexer.KwDo:
			p.next()
			p.next()
		default:
			p.errorf("expected ENDDO, found %s", p.tok())
		}
		p.endOfLine()
		return s
	}

	// Label-terminated loop: collect statements until we parse the one
	// carrying the terminating label (inclusive).
	for {
		for p.at(lexer.NEWLINE) {
			p.next()
		}
		if p.atBlockEnd(endUnit) {
			p.errorf("DO loop terminated by end of unit; missing label %s", endLabel)
			return s
		}
		inner := p.statement()
		if inner == nil {
			continue
		}
		s.Body = append(s.Body, inner)
		if inner.Label() == endLabel {
			return s
		}
	}
}

// signedConstant parses a literal with an optional sign (DATA values).
func (p *parser) signedConstant() ast.Expr {
	pos := p.pos()
	neg := false
	if p.at(lexer.MINUS) {
		neg = true
		p.next()
	} else if p.at(lexer.PLUS) {
		p.next()
	}
	e := p.primary()
	if neg {
		return p.newUnary(pos, ast.OpNeg, e)
	}
	return e
}

// ---------------------------------------------------------------------
// Expressions

func (p *parser) expr() ast.Expr { return p.nested(p.orExpr) }

func (p *parser) orExpr() ast.Expr {
	x := p.andExpr()
	for p.at(lexer.OR) {
		pos := p.pos()
		p.next()
		x = p.newBinary(pos, ast.OpOr, x, p.andExpr())
	}
	return x
}

func (p *parser) andExpr() ast.Expr {
	x := p.notExpr()
	for p.at(lexer.AND) {
		pos := p.pos()
		p.next()
		x = p.newBinary(pos, ast.OpAnd, x, p.notExpr())
	}
	return x
}

func (p *parser) notExpr() ast.Expr {
	if p.at(lexer.NOT) {
		pos := p.pos()
		p.next()
		return p.newUnary(pos, ast.OpNot, p.nested(p.notExpr))
	}
	return p.relExpr()
}

var relOps = map[lexer.Kind]ast.Op{
	lexer.EQ: ast.OpEq, lexer.NE: ast.OpNe,
	lexer.LT: ast.OpLt, lexer.LE: ast.OpLe,
	lexer.GT: ast.OpGt, lexer.GE: ast.OpGe,
}

func (p *parser) relExpr() ast.Expr {
	x := p.arith()
	if op, ok := relOps[p.tok().Kind]; ok {
		pos := p.pos()
		p.next()
		return p.newBinary(pos, op, x, p.arith())
	}
	return x
}

func (p *parser) arith() ast.Expr {
	var x ast.Expr
	// Optional leading sign.
	switch p.tok().Kind {
	case lexer.MINUS:
		pos := p.pos()
		p.next()
		x = p.newUnary(pos, ast.OpNeg, p.term())
	case lexer.PLUS:
		p.next()
		x = p.term()
	default:
		x = p.term()
	}
	for p.at(lexer.PLUS) || p.at(lexer.MINUS) {
		pos := p.pos()
		op := ast.OpAdd
		if p.at(lexer.MINUS) {
			op = ast.OpSub
		}
		p.next()
		x = p.newBinary(pos, op, x, p.term())
	}
	return x
}

func (p *parser) term() ast.Expr {
	x := p.power()
	for p.at(lexer.STAR) || p.at(lexer.SLASH) {
		pos := p.pos()
		op := ast.OpMul
		if p.at(lexer.SLASH) {
			op = ast.OpDiv
		}
		p.next()
		x = p.newBinary(pos, op, x, p.power())
	}
	return x
}

func (p *parser) power() ast.Expr {
	x := p.primary()
	if p.at(lexer.POW) {
		pos := p.pos()
		p.next()
		// ** is right-associative; the exponent may carry its own sign.
		var y ast.Expr
		if p.at(lexer.MINUS) {
			mpos := p.pos()
			p.next()
			y = p.newUnary(mpos, ast.OpNeg, p.nested(p.power))
		} else {
			y = p.nested(p.power)
		}
		return p.newBinary(pos, ast.OpPow, x, y)
	}
	return x
}

func (p *parser) primary() ast.Expr {
	pos := p.pos()
	switch p.tok().Kind {
	case lexer.INTLIT, lexer.LABEL:
		t := p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.diags.Errorf(pos, "integer literal %q out of range", t.Text)
		}
		return p.newIntLit(pos, v)
	case lexer.REALLIT:
		t := p.next()
		text := strings.ReplaceAll(strings.ReplaceAll(t.Text, "D", "E"), "d", "e")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.diags.Errorf(pos, "malformed real literal %q", t.Text)
		}
		return &ast.RealLit{Position: pos, ID: p.num(), Value: v, Text: t.Text}
	case lexer.LOGLIT:
		t := p.next()
		return &ast.LogLit{Position: pos, ID: p.num(), Value: t.Text == ".TRUE."}
	case lexer.STRING:
		t := p.next()
		return &ast.StrLit{Position: pos, ID: p.num(), Value: t.Text}
	case lexer.IDENT:
		t := p.next()
		if !p.at(lexer.LPAREN) {
			return p.newIdent(pos, t.Text)
		}
		p.next()
		a := &ast.Apply{Position: pos, ID: p.num(), Name: t.Text}
		if !p.at(lexer.RPAREN) {
			for {
				a.Args = p.argAppend(a.Args, p.expr())
				if !p.at(lexer.COMMA) {
					break
				}
				p.next()
			}
		}
		p.expect(lexer.RPAREN)
		return a
	case lexer.LPAREN:
		p.next()
		e := p.expr()
		p.expect(lexer.RPAREN)
		return e
	}
	p.errorf("expected an expression, found %s", p.tok())
	p.next()
	return p.newIntLit(pos, 0)
}
