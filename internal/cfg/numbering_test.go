package cfg

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/suite"
)

// lowering exercises every node the builder synthesizes: DO loops with
// literal, negative, runtime and omitted steps and a non-literal bound,
// a computed GOTO, an arithmetic IF, and function calls nested under
// unary, binary and array-subscript nodes.
const lowering = `PROGRAM MAIN
INTEGER A(10), I, K, N, S
DATA N / 4 /
S = 0
DO 10 I = 1, N
S = S + F(I)
10 CONTINUE
DO 20 I = N, 1, -1
S = S - F(-F(I) + 1)
20 CONTINUE
DO 30 I = 1, 9, S
A(F(I)) = A(I) * 2
30 CONTINUE
DO 40 I = 1, 3, 2
40 CONTINUE
GOTO (50, 60), K
50 IF (S - N) 60, 60, 70
60 CONTINUE
70 PRINT *, S, A(1)
END

INTEGER FUNCTION F(X)
INTEGER X
F = X + 1
END
`

// unitExprs calls fn on every expression node reachable from a unit's
// declarations and body.
func unitExprs(u *ast.Unit, fn func(ast.Expr)) {
	walk := func(e ast.Expr) {
		ast.WalkExpr(e, func(x ast.Expr) bool { fn(x); return true })
	}
	items := func(its []*ast.DeclItem) {
		for _, it := range its {
			for _, d := range it.Dims {
				walk(d)
			}
		}
	}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *ast.VarDecl:
			items(x.Items)
		case *ast.CommonDecl:
			items(x.Items)
		case *ast.DimensionDecl:
			items(x.Items)
		case *ast.ParamDecl:
			for _, v := range x.Values {
				walk(v)
			}
		case *ast.DataDecl:
			for _, v := range x.Values {
				walk(v)
			}
		}
	}
	ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
		for _, e := range ast.ExprsOf(s) {
			walk(e)
		}
		return true
	})
}

// graphExprs calls fn on every expression node of a graph's
// instructions and branch conditions.
func graphExprs(g *Graph, fn func(ast.Expr)) {
	walk := func(es ...ast.Expr) {
		for _, e := range es {
			ast.WalkExpr(e, func(x ast.Expr) bool { fn(x); return true })
		}
	}
	for _, blk := range g.Blocks {
		for _, in := range blk.Instrs {
			walk(in.Rhs)
			walk(in.Subs...)
			walk(in.Args...)
			for _, tg := range in.Targets {
				walk(tg.Subs...)
			}
			if in.Site != nil {
				walk(in.Site.Args...)
			}
		}
		walk(blk.Term.Cond)
	}
}

// TestExpressionNumbering checks the numbering invariants over the
// suite, the core test programs, generated programs and a program that
// exercises every lowering: each unit's nodes have distinct numbers in
// (0, Unit.NumExprs), and each node the builder synthesizes has a
// distinct number in [Unit.NumExprs, Graph.NumExprs).
func TestExpressionNumbering(t *testing.T) {
	type program struct{ name, src string }
	progs := []program{{"lowering", lowering}}
	for _, sp := range suite.Programs() {
		progs = append(progs, program{sp.Name, suite.Source(sp)})
	}
	files, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs under ../core/testdata (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{filepath.Base(path), string(src)})
	}
	for _, n := range []int{16, 64, 256} {
		progs = append(progs, program{fmt.Sprintf("gen%d", n), gen.Program(gen.Config{Seed: int64(n), NumProcs: n})})
	}

	synthesized := 0
	for _, p := range progs {
		var diags source.ErrorList
		f := parser.ParseSource(p.name+".f", p.src, &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatalf("%s: front-end errors:\n%s", p.name, diags.Error())
		}
		for _, proc := range prog.Order {
			u := proc.Unit
			byID := make(map[int]ast.Expr)
			unitExprs(u, func(e ast.Expr) {
				id := e.ExprID()
				if id <= 0 || id >= u.NumExprs {
					t.Fatalf("%s/%s: %s has number %d outside (0, %d)", p.name, u.Name, ast.ExprString(e), id, u.NumExprs)
				}
				if prev, ok := byID[id]; ok && prev != e {
					t.Fatalf("%s/%s: %s and %s share number %d", p.name, u.Name, ast.ExprString(prev), ast.ExprString(e), id)
				}
				byID[id] = e
			})
			parsed := len(byID)

			g := Build(prog, proc)
			graphExprs(g, func(e ast.Expr) {
				id := e.ExprID()
				if prev, ok := byID[id]; ok {
					if prev != e {
						t.Fatalf("%s/%s: %s and %s share number %d", p.name, u.Name, ast.ExprString(prev), ast.ExprString(e), id)
					}
					return
				}
				if id < u.NumExprs || id >= g.NumExprs {
					t.Fatalf("%s/%s: synthesized %s has number %d outside [%d, %d)", p.name, u.Name, ast.ExprString(e), id, u.NumExprs, g.NumExprs)
				}
				byID[id] = e
			})
			synthesized += len(byID) - parsed
		}
	}
	if synthesized == 0 {
		t.Fatal("no synthesized nodes checked")
	}
}
