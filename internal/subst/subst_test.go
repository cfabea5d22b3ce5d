package subst

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/ssa"
)

func run(t *testing.T, src string, opts Options) (*Result, *sem.Program, *ast.File) {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	cg := callgraph.Build(prog)
	mod := modref.Compute(cg)
	return Run(cg, mod, formsFor(cg, mod, opts), opts), prog, f
}

// formsFor returns a fresh SSA table with the kill assumptions opts
// selects.
func formsFor(cg *callgraph.Graph, mod *modref.Info, opts Options) *ssa.Table {
	if opts.UseMOD {
		return ssa.NewTable(cg, mod.Kills)
	}
	return ssa.NewTable(cg, nil)
}

func TestCountsLocalConstants(t *testing.T) {
	res, prog, _ := run(t, `PROGRAM P
INTEGER K, M
K = 5
M = K + K
PRINT *, M
END
`, Options{UseMOD: true})
	// Uses: K (twice in K+K) and M (in PRINT) = 3.
	if res.Total != 3 {
		t.Errorf("total = %d, want 3", res.Total)
	}
	if res.Procs[0] != prog.Main || res.Decisions[0].Count != 3 {
		t.Errorf("per-proc = %v", res.Decisions)
	}
}

func TestEntryEnvironmentEnablesInterprocedural(t *testing.T) {
	src := `PROGRAM P
CALL S(4)
END
SUBROUTINE S(N)
INTEGER N, M
M = N * 2
PRINT *, M
END
`
	// Parse once so symbol identities are stable across both runs.
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	cg := callgraph.Build(prog)
	mod := modref.Compute(cg)

	// Without an entry environment the formal is unknown: 0 uses.
	forms := ssa.NewTable(cg, mod.Kills)
	res := Run(cg, mod, forms, Options{UseMOD: true})
	if res.Total != 0 {
		t.Errorf("without env: total = %d, want 0", res.Total)
	}
	// With N=4: uses of N and M count.
	sp := prog.Procs["S"]
	res2 := Run(cg, mod, forms, Options{UseMOD: true, Entry: func(p *sem.Procedure) map[ssa.Var]int64 {
		if p == sp {
			return map[ssa.Var]int64{ssa.VarOf(sp.Formals[0]): 4}
		}
		return nil
	}})
	if res2.Total != 2 {
		t.Errorf("with env: total = %d, want 2 (N and M uses)", res2.Total)
	}
}

func TestExclusions(t *testing.T) {
	src := `PROGRAM P
INTEGER K, A(10), I
K = 3
A(K) = K
READ *, A(K)
DO I = 1, K
  PRINT *, I
ENDDO
CALL IN(K)
CALL OUT(K)
END
SUBROUTINE OUT(X)
INTEGER X
X = 9
END
SUBROUTINE IN(X)
INTEGER X
PRINT *, X
END
`
	res, _, f := run(t, src, Options{UseMOD: true})
	// Countable uses of K: subscript in A(K)=..., RHS K, subscript in
	// READ's A(K), DO bound, and the actual to IN (not modified).
	// NOT countable: the actual to OUT (X is modified — substituting
	// would break the program, and K is no longer constant afterwards
	// anyway); lhs positions; the DO variable I (non-constant anyway).
	if res.Total != 5 {
		var b strings.Builder
		_ = ast.WriteFileSubst(&b, f, res.Replacements())
		t.Errorf("total = %d, want 5\n%s", res.Total, b.String())
	}
	// Verify OUT's argument survived substitution.
	var b strings.Builder
	_ = ast.WriteFileSubst(&b, f, res.Replacements())
	out := b.String()
	if !strings.Contains(out, "CALL OUT(K)") {
		t.Errorf("out-parameter actual must not be substituted:\n%s", out)
	}
	if !strings.Contains(out, "CALL IN(3)") {
		t.Errorf("read-only actual should be substituted:\n%s", out)
	}
}

func TestWithoutMODNoActualsSubstituted(t *testing.T) {
	src := `PROGRAM P
INTEGER K
K = 3
CALL IN(K)
END
SUBROUTINE IN(X)
INTEGER X
PRINT *, X
END
`
	res, _, _ := run(t, src, Options{UseMOD: false})
	// Without MOD, any variable actual may be modified: K's use at the
	// call is not substitutable. (X inside IN is unknown anyway.)
	if res.Total != 0 {
		t.Errorf("total = %d, want 0", res.Total)
	}
}

func TestParameterConstantsNotCounted(t *testing.T) {
	res, _, _ := run(t, `PROGRAM P
PARAMETER (N = 10)
INTEGER K
K = N
PRINT *, K
END
`, Options{UseMOD: true})
	// N is a PARAMETER (already a compile-time constant — not an
	// analysis result); K's use counts.
	if res.Total != 1 {
		t.Errorf("total = %d, want 1", res.Total)
	}
}

func TestPruneSkipsDeadUses(t *testing.T) {
	src := `PROGRAM P
INTEGER K, M
K = 1
IF (K .EQ. 2) THEN
  M = 7
  PRINT *, M
ENDIF
PRINT *, K
END
`
	plain, _, _ := run(t, src, Options{UseMOD: true})
	pruned, _, _ := run(t, src, Options{UseMOD: true, Prune: true})
	// The dead arm's M use disappears under pruning; K's uses remain.
	if pruned.Total >= plain.Total {
		t.Errorf("pruned (%d) should count fewer than plain (%d)", pruned.Total, plain.Total)
	}
}

func TestNegativeConstantsParenthesized(t *testing.T) {
	src := `PROGRAM P
INTEGER K, M
K = -3
M = 10 - K
PRINT *, M
END
`
	res, _, f := run(t, src, Options{UseMOD: true})
	var b strings.Builder
	_ = ast.WriteFileSubst(&b, f, res.Replacements())
	out := b.String()
	if !strings.Contains(out, "10 - (-3)") {
		t.Errorf("negative substitution must parenthesize:\n%s", out)
	}
	// And it must reparse.
	var diags source.ErrorList
	parser.ParseSource("t2.f", out, &diags)
	if diags.HasErrors() {
		t.Errorf("substituted source does not parse:\n%s", diags.Error())
	}
}

func TestRealVariablesNotCounted(t *testing.T) {
	res, _, _ := run(t, `PROGRAM P
REAL X
INTEGER K
X = 2.5
K = 3
PRINT *, X, K
END
`, Options{UseMOD: true})
	if res.Total != 1 {
		t.Errorf("total = %d, want 1 (only the integer use)", res.Total)
	}
}
