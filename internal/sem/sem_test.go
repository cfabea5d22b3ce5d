package sem

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/source"
)

func analyze(t *testing.T, src string) (*Program, *source.ErrorList) {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.Error())
	}
	prog := Analyze(f, &diags)
	return prog, &diags
}

func analyzeOK(t *testing.T, src string) *Program {
	t.Helper()
	prog, diags := analyze(t, src)
	if diags.HasErrors() {
		t.Fatalf("sem errors:\n%s", diags.Error())
	}
	return prog
}

func expectError(t *testing.T, src, fragment string) {
	t.Helper()
	_, diags := analyze(t, src)
	if !diags.HasErrors() {
		t.Fatalf("expected error containing %q, got none", fragment)
	}
	if !strings.Contains(diags.Error(), fragment) {
		t.Fatalf("expected error containing %q, got:\n%s", fragment, diags.Error())
	}
}

func TestBasicProgram(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
INTEGER I
I = 1
CALL S(I)
END

SUBROUTINE S(N)
INTEGER N
N = N + 1
END
`)
	if prog.Main == nil || prog.Main.Name != "MAIN" {
		t.Fatal("main not identified")
	}
	s := prog.Procs["S"]
	if s == nil || len(s.Formals) != 1 {
		t.Fatalf("S: %+v", s)
	}
	if s.Formals[0].Kind != SymFormal || s.Formals[0].Type != ast.TypeInteger {
		t.Errorf("formal N: %+v", s.Formals[0])
	}
}

func TestImplicitTyping(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
K = 1
X = 2.5
END
`)
	m := prog.Main
	if m.Lookup("K").Type != ast.TypeInteger {
		t.Error("K should be implicitly INTEGER")
	}
	if m.Lookup("X").Type != ast.TypeReal {
		t.Error("X should be implicitly REAL")
	}
}

func TestCommonLinking(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
INTEGER N, M
COMMON /GRID/ N, M
N = 10
M = 20
CALL USE
END

SUBROUTINE USE()
INTEGER NP, MP
COMMON /GRID/ NP, MP
NP = NP + MP
END
`)
	layout := prog.CommonBlocks["GRID"]
	if len(layout) != 2 {
		t.Fatalf("GRID layout = %d members", len(layout))
	}
	n := prog.Main.Lookup("N")
	np := prog.Procs["USE"].Lookup("NP")
	if n.Global == nil || np.Global == nil {
		t.Fatal("common symbols not linked")
	}
	if n.Global != np.Global {
		t.Error("N and NP should share the same GlobalVar")
	}
	if n.Global.Key() != "GRID#0" {
		t.Errorf("global key = %q", n.Global.Key())
	}
	if got := len(prog.Globals()); got != 2 {
		t.Errorf("Globals() = %d", got)
	}
}

func TestCommonTypeFromPriorDecl(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
INTEGER Q
COMMON /B/ Q
Q = 1
END
`)
	q := prog.Main.Lookup("Q")
	if q.Kind != SymCommon || q.Type != ast.TypeInteger {
		t.Errorf("Q: %+v", q)
	}
}

func TestParameterConstants(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
PARAMETER (N = 100, M = N*2 + 1)
INTEGER A(M)
A(1) = N
END
`)
	m := prog.Main.Lookup("M")
	if !m.HasConst || m.ConstValue != 201 {
		t.Errorf("M = %+v, want 201", m)
	}
}

func TestArrayVsCallResolution(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
INTEGER A(10), I
I = F(3)
A(I) = MOD(I, 2)
END

INTEGER FUNCTION F(X)
INTEGER X
F = X*2
END
`)
	var arrays, calls, intrinsics int
	ast.WalkStmts(prog.Main.Unit.Body, func(s ast.Stmt) bool {
		for _, e := range ast.ExprsOf(s) {
			ast.WalkExpr(e, func(x ast.Expr) bool {
				if ap, ok := x.(*ast.Apply); ok {
					switch prog.Main.ApplyKindOf(ap) {
					case ApplyArray:
						arrays++
					case ApplyCall:
						calls++
					case ApplyIntrinsic:
						intrinsics++
					}
				}
				return true
			})
		}
		return true
	})
	if arrays != 1 || calls != 1 || intrinsics != 1 {
		t.Errorf("resolution counts: arrays=%d calls=%d intrinsics=%d", arrays, calls, intrinsics)
	}
}

func TestFunctionResultSymbol(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
I = G(1)
END

INTEGER FUNCTION G(X)
INTEGER X
G = X + 1
END
`)
	g := prog.Procs["G"]
	if g.Result == nil || g.Result.Kind != SymResult || g.Result.Type != ast.TypeInteger {
		t.Errorf("result symbol: %+v", g.Result)
	}
}

func TestTypeOfExpressions(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
INTEGER I
REAL X
LOGICAL L
I = 1 + 2
X = I + 1.5
L = I .LT. 3
END
`)
	for _, s := range prog.Main.Unit.Body {
		as := s.(*ast.AssignStmt)
		lhs := as.Lhs.(*ast.Ident)
		rt := prog.Main.TypeOf(as.Rhs)
		switch lhs.Name {
		case "I":
			if rt != ast.TypeInteger {
				t.Errorf("I rhs type = %v", rt)
			}
		case "X":
			if rt != ast.TypeReal {
				t.Errorf("X rhs type = %v", rt)
			}
		case "L":
			if rt != ast.TypeLogical {
				t.Errorf("L rhs type = %v", rt)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"PROGRAM A\nEND\nPROGRAM A\nEND\n", "duplicate program unit"},
		{"PROGRAM A\nI = 1\nEND\nPROGRAM B\nEND\n", "multiple PROGRAM units"},
		{"SUBROUTINE S(X)\nX = 1\nEND\n", "no PROGRAM unit"},
		{"PROGRAM P\nCALL NOPE(1)\nEND\n", "undefined procedure"},
		{"PROGRAM P\nCALL S(1, 2)\nEND\nSUBROUTINE S(A)\nA = 1\nEND\n", "takes 1 argument"},
		{"PROGRAM P\nI = S(1)\nEND\nSUBROUTINE S(A)\nA = 1\nEND\n", "not a FUNCTION"},
		{"PROGRAM P\nCALL F(1)\nEND\nINTEGER FUNCTION F(A)\nF = A\nEND\n", "not a SUBROUTINE"},
		{"SUBROUTINE S(A, A)\nEND\nPROGRAM P\nEND\n", "duplicate formal"},
		{"PROGRAM P\nPARAMETER (K = 1)\nK = 2\nEND\n", "cannot assign to PARAMETER"},
		{"PROGRAM P\nIF (1 + 2) THEN\nENDIF\nEND\n", "must be LOGICAL"},
		{"PROGRAM P\nLOGICAL L\nI = L + 1\nEND\n", "applied to LOGICAL"},
		{"PROGRAM P\nLOGICAL L\nL = L .GT. 1\nEND\n", "cannot compare LOGICAL"},
		{"PROGRAM P\nINTEGER A(5)\nA(1, 2) = 0\nEND\n", "1 dimension"},
		{"PROGRAM P\nX = Y(3)\nEND\n", "neither an array"},
		{"PROGRAM P\nINTEGER A(5)\nA = 1\nEND\n", "without subscripts"},
		{"PROGRAM P\nDO 10 K = 1, 2.5\n10 CONTINUE\nEND\n", "must be INTEGER"},
		{"PROGRAM P\n10 CONTINUE\n10 CONTINUE\nEND\n", "duplicate label"},
		{"PROGRAM P\nINTEGER A(3)\nCALL S(A)\nEND\nSUBROUTINE S(X)\nX = 1\nEND\n", "passed to scalar formal"},
		{"PROGRAM P\nMOD = MOD(1, 2, 3)\nEND\n", "with 3 argument"},
		{"PROGRAM P\nIF (I) 10, 20, 99\n10 CONTINUE\n20 CONTINUE\nEND\n", "label 99 not defined"},
		{"PROGRAM P\nLOGICAL L\nIF (L) 10, 10, 10\n10 CONTINUE\nEND\n", "arithmetic IF requires"},
		{"PROGRAM P\nGOTO (10, 99), I\n10 CONTINUE\nEND\n", "label 99 not defined"},
		{"PROGRAM P\nGOTO (10), 2.5\n10 CONTINUE\nEND\n", "computed GOTO index must be INTEGER"},
	}
	for _, c := range cases {
		expectError(t, c.src, c.frag)
	}
}

func TestGotoUndefinedLabelCaughtBySem(t *testing.T) {
	expectError(t, "PROGRAM P\nGOTO 99\nEND\n", "label 99 not defined")
}

func TestFunctionWithoutResultWarns(t *testing.T) {
	_, diags := analyze(t, `PROGRAM P
I = F(1)
END
INTEGER FUNCTION F(A)
A = A + 1
END
`)
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags.Error())
	}
	found := false
	for _, d := range diags.Diags {
		if d.Severity == source.Warning && strings.Contains(d.Message, "never assigns its result") {
			found = true
		}
	}
	if !found {
		t.Error("expected a warning about missing result assignment")
	}
}

func TestDimensionStatement(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
INTEGER A
DIMENSION A(10), X(5)
A(3) = 1
X(2) = 1.5
END
`)
	a := prog.Main.Lookup("A")
	if !a.IsArray || a.Type != ast.TypeInteger {
		t.Errorf("A: %+v", a)
	}
	x := prog.Main.Lookup("X")
	if !x.IsArray || x.Type != ast.TypeReal {
		t.Errorf("X: %+v", x)
	}
}

func TestIntrinsicTyping(t *testing.T) {
	prog := analyzeOK(t, `PROGRAM MAIN
INTEGER I
REAL X
I = MAX(1, 2, 3)
X = ABS(-1.5)
END
`)
	_ = prog
}

func TestCommonExtendedLayout(t *testing.T) {
	// Second unit declares more members of the same block.
	prog := analyzeOK(t, `PROGRAM MAIN
COMMON /C/ A
A = 1.0
CALL S
END
SUBROUTINE S()
COMMON /C/ B, N
B = 2.0
N = 3
END
`)
	if len(prog.CommonBlocks["C"]) != 2 {
		t.Errorf("layout = %d", len(prog.CommonBlocks["C"]))
	}
	a := prog.Main.Lookup("A")
	b := prog.Procs["S"].Lookup("B")
	if a.Global != b.Global {
		t.Error("A and B should alias")
	}
}

func TestSymbolStrings(t *testing.T) {
	s := &Symbol{Name: "N", Kind: SymFormal, Type: ast.TypeInteger}
	if got := s.String(); !strings.Contains(got, "formal") || !strings.Contains(got, "N") {
		t.Errorf("Symbol.String = %q", got)
	}
	g := &GlobalVar{Block: "B", Index: 1, Name: "X"}
	if g.String() != "/B/ X" {
		t.Errorf("GlobalVar.String = %q", g.String())
	}
	for _, k := range []SymbolKind{SymLocal, SymFormal, SymCommon, SymConst, SymResult, SymProc} {
		if k.String() == "" {
			t.Error("empty SymbolKind string")
		}
	}
}

// TestUnnumberedExpressionsAreNotRecorded: number 0 marks a node built
// outside the parser. The body check still types it, but no table
// stores slot 0, so the procedure answers the zero fact for it and its
// numbered children keep their own entries.
func TestUnnumberedExpressionsAreNotRecorded(t *testing.T) {
	var diags source.ErrorList
	f := parser.ParseSource("t.f", "PROGRAM MAIN\nINTEGER I\nI = 1\nPRINT *, I\nEND\n", &diags)
	pr := f.Units[0].Body[1].(*ast.PrintStmt)
	id := pr.Args[0]
	mod := &ast.Apply{Name: "MOD", Args: []ast.Expr{id, &ast.IntLit{Value: 2}}}
	sum := &ast.Binary{Op: ast.OpAdd, X: mod, Y: &ast.IntLit{Value: 1}}
	pr.Args[0] = sum
	prog := Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("sem errors:\n%s", diags.Error())
	}
	p := prog.Main
	if got := p.TypeOf(sum); got != ast.TypeNone {
		t.Errorf("TypeOf(unnumbered) = %v, want %v", got, ast.TypeNone)
	}
	if got := p.ApplyKindOf(mod); got != ApplyArray {
		t.Errorf("ApplyKindOf(unnumbered MOD) = %v, want the zero kind", got)
	}
	if p.exprTypes[0] != ast.TypeNone || p.applyKinds[0] != ApplyArray {
		t.Errorf("slot 0 stored: type %v, apply kind %v", p.exprTypes[0], p.applyKinds[0])
	}
	if got := p.TypeOf(id); got != ast.TypeInteger {
		t.Errorf("TypeOf(I) = %v, want INTEGER", got)
	}
}
