package jump

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/symbolic"
)

func buildFns(t *testing.T, src string, cfg Config) (*Functions, *sem.Program) {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	cg := callgraph.Build(prog)
	mod := modref.Compute(cg)
	var kills ssa.KillFunc
	if cfg.UseMOD {
		kills = mod.Kills
	}
	fns, err := Build(nil, cg, mod, ssa.NewTable(cg, kills), symbolic.NewBuilder(), cfg, nil)
	if err != nil {
		t.Fatalf("jump.Build: %v", err)
	}
	return fns, prog
}

// siteOf finds the jump functions for caller's idx-th call site.
func siteOf(t *testing.T, fns *Functions, prog *sem.Program, caller string, idx int) *SiteFunctions {
	t.Helper()
	pf := fns.Procs[prog.Procs[caller]]
	if pf == nil || idx >= len(pf.Sites) {
		t.Fatalf("no site %d in %s", idx, caller)
	}
	return pf.Sites[idx]
}

const chain = `PROGRAM MAIN
INTEGER K
K = 2 + 3
CALL A(7, K)
END
SUBROUTINE A(N, M)
INTEGER N, M
CALL B(N, M + 1, 9)
END
SUBROUTINE B(X, Y, Z)
INTEGER X, Y, Z
PRINT *, X + Y + Z
END
`

func TestLiteralKindRestriction(t *testing.T) {
	fns, prog := buildFns(t, chain, Config{Kind: Literal, UseMOD: true})
	// MAIN's site: 7 is literal, K is not.
	sf := siteOf(t, fns, prog, "MAIN", 0)
	if c, ok := sf.Formals[0].IsConst(); !ok || c != 7 {
		t.Errorf("J for N = %v, want 7", sf.Formals[0])
	}
	if sf.Formals[1] != nil {
		t.Errorf("J for M = %v, want ⊥ (K is computed, not literal)", sf.Formals[1])
	}
	// A's site: N pass-through and M+1 polynomial both rejected; 9 kept.
	sf = siteOf(t, fns, prog, "A", 0)
	if sf.Formals[0] != nil || sf.Formals[1] != nil {
		t.Errorf("literal kind should reject non-literal actuals: %v %v", sf.Formals[0], sf.Formals[1])
	}
	if c, ok := sf.Formals[2].IsConst(); !ok || c != 9 {
		t.Errorf("J for Z = %v, want 9", sf.Formals[2])
	}
}

func TestIntraKindRestriction(t *testing.T) {
	fns, prog := buildFns(t, chain, Config{Kind: Intraprocedural, UseMOD: true})
	sf := siteOf(t, fns, prog, "MAIN", 0)
	if c, ok := sf.Formals[1].IsConst(); !ok || c != 5 {
		t.Errorf("J for M = %v, want 5 (2+3 folds)", sf.Formals[1])
	}
	// In A, N is a formal (not intraprocedurally constant).
	sf = siteOf(t, fns, prog, "A", 0)
	if sf.Formals[0] != nil {
		t.Errorf("J for X = %v, want ⊥", sf.Formals[0])
	}
}

func TestPassThroughKindRestriction(t *testing.T) {
	fns, prog := buildFns(t, chain, Config{Kind: PassThrough, UseMOD: true})
	sf := siteOf(t, fns, prog, "A", 0)
	if sf.Formals[0] == nil || sf.Formals[0].Op != symbolic.OpParam {
		t.Errorf("J for X = %v, want Param(N)", sf.Formals[0])
	}
	if sf.Formals[1] != nil {
		t.Errorf("J for Y = %v, want ⊥ (M+1 is polynomial, not pass-through)", sf.Formals[1])
	}
}

func TestPolynomialKindKeepsExpressions(t *testing.T) {
	fns, prog := buildFns(t, chain, Config{Kind: Polynomial, UseMOD: true})
	sf := siteOf(t, fns, prog, "A", 0)
	if sf.Formals[1] == nil {
		t.Fatal("J for Y should be M+1")
	}
	if len(sf.Formals[1].Support()) != 1 {
		t.Errorf("support of M+1 = %v", sf.Formals[1].Support())
	}
}

func TestReturnSummaries(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER I
CALL SETTER(I, 3)
END
SUBROUTINE SETTER(A, B)
INTEGER A, B
A = B * B + 1
END
INTEGER FUNCTION TWICE(X)
INTEGER X
TWICE = X * 2
END
`
	fns, prog := buildFns(t, src, Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true})
	setter := prog.Procs["SETTER"]
	sum := fns.Returns[setter]
	if sum == nil {
		t.Fatal("no return summary for SETTER")
	}
	if sum.Formals[0] == nil {
		t.Fatal("no return JF for A")
	}
	if len(sum.Formals[0].Support()) != 1 {
		t.Errorf("R for A should depend on B: %v", sum.Formals[0])
	}
	// B unmodified: identity return jump function.
	if sum.Formals[1] == nil || sum.Formals[1].Op != symbolic.OpParam {
		t.Errorf("R for B = %v, want identity", sum.Formals[1])
	}
	// Function result summary (TWICE is never called, but bottom-up
	// generation still summarizes it).
	twice := prog.Procs["TWICE"]
	if fns.Returns[twice] == nil || fns.Returns[twice].Result == nil {
		t.Errorf("no result summary for TWICE: %+v", fns.Returns[twice])
	}
}

func TestRecursiveProcedureHasNoSummary(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER I
CALL R(I, 3)
END
SUBROUTINE R(X, N)
INTEGER X, N
X = N
IF (N .GT. 0) CALL R(X, N - 1)
END
`
	fns, prog := buildFns(t, src, Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true})
	if fns.Returns[prog.Procs["R"]] != nil {
		t.Error("recursive procedure should have no return summary")
	}
}

func TestGlobalJumpFunctions(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER G
COMMON /C/ G
G = 5
CALL S
END
SUBROUTINE S()
INTEGER H
COMMON /C/ H
PRINT *, H
END
`
	fns, prog := buildFns(t, src, Config{Kind: Intraprocedural, UseMOD: true})
	sf := siteOf(t, fns, prog, "MAIN", 0)
	g := prog.CommonBlocks["C"][0]
	if c, ok := sf.Globals[g].IsConst(); !ok || c != 5 {
		t.Errorf("J for global = %v, want 5", sf.Globals[g])
	}

	// The literal kind ignores globals entirely.
	fns, prog = buildFns(t, src, Config{Kind: Literal, UseMOD: true})
	sf = siteOf(t, fns, prog, "MAIN", 0)
	if len(sf.Globals) != 0 {
		t.Errorf("literal kind should have no global jump functions: %v", sf.Globals)
	}
}

func TestNonIntegerFormalsSkipped(t *testing.T) {
	src := `PROGRAM MAIN
CALL S(1.5, 2, .TRUE.)
END
SUBROUTINE S(X, N, L)
REAL X
INTEGER N
LOGICAL L
PRINT *, N
END
`
	fns, prog := buildFns(t, src, Config{Kind: Polynomial, UseMOD: true})
	sf := siteOf(t, fns, prog, "MAIN", 0)
	if sf.Formals[0] != nil || sf.Formals[2] != nil {
		t.Errorf("REAL/LOGICAL formals should get no jump functions: %v %v", sf.Formals[0], sf.Formals[2])
	}
	if c, ok := sf.Formals[1].IsConst(); !ok || c != 2 {
		t.Errorf("J for N = %v", sf.Formals[1])
	}
}

func TestDeadSiteMarking(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER I
I = 1
IF (I .EQ. 2) THEN
  CALL S(9)
ENDIF
CALL S(4)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`
	fns, prog := buildFns(t, src, Config{Kind: Polynomial, UseMOD: true, Prune: true})
	pf := fns.Procs[prog.Procs["MAIN"]]
	if len(pf.Sites) != 2 {
		t.Fatalf("sites = %d", len(pf.Sites))
	}
	deadCount := 0
	for _, s := range pf.Sites {
		if s.Dead {
			deadCount++
		}
	}
	if deadCount != 1 {
		t.Errorf("dead sites = %d, want 1", deadCount)
	}
}

func TestNegativeLiteralAtSite(t *testing.T) {
	src := `PROGRAM MAIN
CALL S(-8)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`
	fns, prog := buildFns(t, src, Config{Kind: Literal, UseMOD: true})
	sf := siteOf(t, fns, prog, "MAIN", 0)
	if c, ok := sf.Formals[0].IsConst(); !ok || c != -8 {
		t.Errorf("J for N = %v, want -8", sf.Formals[0])
	}
}

func TestKindAndConfigStrings(t *testing.T) {
	names := map[Kind]string{
		Literal: "literal", Intraprocedural: "intraprocedural",
		PassThrough: "pass-through", Polynomial: "polynomial",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	d := DefaultConfig()
	if d.Kind != PassThrough || !d.UseMOD || !d.UseReturnJFs {
		t.Errorf("DefaultConfig = %+v", d)
	}
}

func TestSiteFunctionsString(t *testing.T) {
	fns, prog := buildFns(t, chain, Config{Kind: Polynomial, UseMOD: true})
	sf := siteOf(t, fns, prog, "MAIN", 0)
	s := sf.String()
	if !strings.Contains(s, "N=7") {
		t.Errorf("String = %q", s)
	}
}

// TestBuildValueNumbersEachProcedureOnce: Build value-numbers every
// procedure exactly once — recursive or not, with or without return
// jump functions, serially and in parallel. Build asks for a
// procedure's entry environment once per value numbering, so counting
// those requests counts the analyses.
func TestBuildValueNumbersEachProcedureOnce(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "core", "testdata", "recursion.f"))
	if err != nil {
		t.Fatal(err)
	}
	var diags source.ErrorList
	prog := sem.Analyze(parser.ParseSource("recursion.f", string(src), &diags), &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	cg := callgraph.Build(prog)
	mod := modref.Compute(cg)
	for _, ret := range []bool{true, false} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("ret=%v/par%d", ret, par), func(t *testing.T) {
				var mu sync.Mutex
				runs := make(map[*sem.Procedure]int)
				entry := func(p *sem.Procedure) map[ssa.Var]int64 {
					mu.Lock()
					runs[p]++
					mu.Unlock()
					return nil
				}
				cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: ret, Parallelism: par}
				fns, err := Build(nil, cg, mod, ssa.NewTable(cg, mod.Kills), symbolic.NewBuilder(), cfg, entry)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range prog.Order {
					if runs[p] != 1 {
						t.Errorf("%s value-numbered %d times, want 1", p.Name, runs[p])
					}
					if fns.Procs[p] == nil || fns.Procs[p].Intra == nil {
						t.Errorf("%s has no stored value numbering", p.Name)
					}
				}
			})
		}
	}
}
