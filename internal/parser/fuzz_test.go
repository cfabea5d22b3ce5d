package parser

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/source"
)

// FuzzParse: the parser must terminate without panicking on arbitrary
// input, respecting the nesting and size guards, and must number every
// unit's expression nodes distinctly within (0, Unit.NumExprs). Seeded
// from the core analysis corpus (internal/core/testdata/*.f).
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
	f.Fuzz(func(t *testing.T, src string) {
		var diags source.ErrorList
		file := ParseSource("fuzz.f", src, &diags)
		if file == nil {
			t.Fatal("ParseSource returned nil file")
		}
		for _, u := range file.Units {
			checkNumbering(t, u)
		}
	})
}

// checkNumbering fails unless every expression node reachable from the
// unit's declarations and body has a number in (0, u.NumExprs) that no
// other node shares.
func checkNumbering(t *testing.T, u *ast.Unit) {
	t.Helper()
	byID := make(map[int]ast.Expr)
	check := func(e ast.Expr) {
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
	}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *ast.VarDecl:
			for _, it := range x.Items {
				for _, e := range it.Dims {
					check(e)
				}
			}
		case *ast.CommonDecl:
			for _, it := range x.Items {
				for _, e := range it.Dims {
					check(e)
				}
			}
		case *ast.DimensionDecl:
			for _, it := range x.Items {
				for _, e := range it.Dims {
					check(e)
				}
			}
		case *ast.ParamDecl:
			for _, e := range x.Values {
				check(e)
			}
		case *ast.DataDecl:
			for _, e := range x.Values {
				check(e)
			}
		}
	}
	ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
		for _, e := range ast.ExprsOf(s) {
			check(e)
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
