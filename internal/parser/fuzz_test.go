package parser

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/source"
)

// FuzzParse: the parser must terminate without panicking on arbitrary
// input, respecting the nesting and size guards, and must number every
// unit's expression nodes distinctly within (0, Unit.NumExprs). The text
// from any line L of the input, parsed alone at line L
// (source.NewFileAt), must give every node the position and every
// diagnostic the text of a parse of the same text padded with L-1
// newlines. Seeded from the core analysis corpus
// (internal/core/testdata/*.f).
//
// Run the corpus with `go test`; explore with `go test -fuzz FuzzParse`.
func FuzzParse(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "core", "testdata", "*.f"))
	if len(seeds) == 0 {
		f.Fatal("no seed corpus under ../core/testdata")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// Lexer and parser diagnostics on later lines.
	f.Add("PROGRAM P\nI = 1\nJ = I $ 2\nK = I .FOO. 3\nPRINT *, 'AB\nL = (1\nEND\n")
	f.Fuzz(func(t *testing.T, src string) {
		var diags source.ErrorList
		file := ParseSource("fuzz.f", src, &diags)
		if file == nil {
			t.Fatal("ParseSource returned nil file")
		}
		for _, u := range file.Units {
			checkNumbering(t, u)
		}
		if len(src) <= MaxSourceBytes {
			checkAtLine(t, src)
		}
	})
}

// checkAtLine parses the text from line L of src alone at line L and,
// as the reference, the same text padded with L-1 newlines, for up to
// 64 lines L spread over src, and fails unless both give the same
// positions and diagnostics. Offsets differ by design: a unit parsed
// alone counts them from its own start.
func checkAtLine(t *testing.T, src string) {
	t.Helper()
	starts := []int{0}
	for i := 0; i+1 < len(src); i++ {
		if src[i] == '\n' {
			starts = append(starts, i+1)
		}
	}
	for l := 0; l < len(starts); l += max(1, len(starts)/64) {
		line, text := l+1, src[starts[l]:]
		var got, want source.ErrorList
		alone := ParseFile(source.NewFileAt("fuzz.f", text, line), &got)
		padded := ParseSource("fuzz.f", strings.Repeat("\n", line-1)+text, &want)
		if a, b := positions(alone), positions(padded); a != b {
			t.Fatalf("text from line %d parsed alone:\n%s\npadded:\n%s", line, a, b)
		}
		if a, b := got.Error(), want.Error(); len(got.Diags) != len(want.Diags) || a != b {
			t.Fatalf("text from line %d parsed alone reports\n%s\npadded\n%s", line, a, b)
		}
	}
}

// positions renders the line and column of every unit, formal,
// declaration, declarator, statement and expression of f, one unit a
// line.
func positions(f *ast.File) string {
	var b strings.Builder
	at := func(n ast.Node) {
		p := n.Pos()
		fmt.Fprintf(&b, " %d:%d", p.Line, p.Col)
	}
	for _, u := range f.Units {
		at(u)
		for _, p := range u.Params {
			at(p)
		}
		for _, d := range u.Decls {
			at(d)
			for _, it := range declItems(d) {
				at(it)
			}
		}
		ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
			at(s)
			return true
		})
		unitExprs(u, func(e ast.Expr) {
			ast.WalkExpr(e, func(x ast.Expr) bool {
				at(x)
				return true
			})
		})
		b.WriteByte('\n')
	}
	return b.String()
}

// checkNumbering fails unless every expression node reachable from the
// unit's declarations and body has a number in (0, u.NumExprs) that no
// other node shares.
func checkNumbering(t *testing.T, u *ast.Unit) {
	t.Helper()
	byID := make(map[int]ast.Expr)
	unitExprs(u, func(e ast.Expr) {
		ast.WalkExpr(e, func(x ast.Expr) bool {
			id := x.ExprID()
			if id <= 0 || id >= u.NumExprs {
				t.Fatalf("%s: %s has number %d outside (0, %d)", u.Name, ast.ExprString(x), id, u.NumExprs)
			}
			if prev, ok := byID[id]; ok && prev != x {
				t.Fatalf("%s: %s and %s share number %d", u.Name, ast.ExprString(prev), ast.ExprString(x), id)
			}
			byID[id] = x
			return true
		})
	})
}

// declItems returns a declaration's declarators.
func declItems(d ast.Decl) []*ast.DeclItem {
	switch x := d.(type) {
	case *ast.VarDecl:
		return x.Items
	case *ast.CommonDecl:
		return x.Items
	case *ast.DimensionDecl:
		return x.Items
	}
	return nil
}

// unitExprs calls fn with every root expression of the unit's
// declarations and body statements.
func unitExprs(u *ast.Unit, fn func(ast.Expr)) {
	for _, d := range u.Decls {
		for _, it := range declItems(d) {
			for _, e := range it.Dims {
				fn(e)
			}
		}
		switch x := d.(type) {
		case *ast.ParamDecl:
			for _, e := range x.Values {
				fn(e)
			}
		case *ast.DataDecl:
			for _, e := range x.Values {
				fn(e)
			}
		}
	}
	ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
		for _, e := range ast.ExprsOf(s) {
			fn(e)
		}
		return true
	})
}

// FuzzFrontEnd: lexing, parsing, and semantic analysis must never panic
// on arbitrary input, and for accepted programs the writer's output must
// reparse cleanly (print/parse round-trip stability).
//
// Run the corpus with `go test`; explore with `go test -fuzz FuzzFrontEnd`.
func FuzzFrontEnd(f *testing.F) {
	seeds := []string{
		"PROGRAM P\nI = 1\nEND\n",
		"PROGRAM P\nDO 10 I = 1, 10\n10 CONTINUE\nEND\n",
		"PROGRAM P\nIF (I) 1, 2, 3\n1 CONTINUE\n2 CONTINUE\n3 CONTINUE\nEND\n",
		"PROGRAM P\nGOTO (1, 2), I\n1 CONTINUE\n2 CONTINUE\nEND\n",
		"SUBROUTINE S(A, B)\nCOMMON /C/ X\nA = B ** 2\nEND\n",
		"INTEGER FUNCTION F(N)\nF = MOD(N, 2)\nEND\n",
		"PROGRAM P\nC = 1.5\nC comment\nPRINT *, C\nEND\n",
		"PROGRAM P\nPARAMETER (N = 10)\nINTEGER A(N)\nDATA K / -3 /\nEND\n",
		"PROGRAM P\nX = 1.E5 + .5 - 4.5D0\nEND\n",
		"PROGRAM P\nL = 1.EQ.2 .AND. .NOT. .TRUE.\nEND\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var diags source.ErrorList
		file := ParseSource("fuzz.f", src, &diags)
		prog := sem.Analyze(file, &diags)
		_ = prog
		if diags.HasErrors() {
			return // rejected: fine
		}
		// Accepted: the writer must produce re-parseable text.
		printed := ast.FileString(file)
		var diags2 source.ErrorList
		ParseSource("fuzz2.f", printed, &diags2)
		if diags2.HasErrors() {
			t.Fatalf("accepted program's printed form does not reparse:\n--- original ---\n%s\n--- printed ---\n%s\n--- errors ---\n%s",
				src, printed, diags2.Error())
		}
	})
}
