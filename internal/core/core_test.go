package core

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/jump"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/subst"
)

func analyzeSrc(t *testing.T, src string, cfg Config) *Analysis {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	return AnalyzeProgram(prog, cfg)
}

func configFor(kind jump.Kind) Config {
	return Config{Jump: jump.Config{Kind: kind, UseMOD: true, UseReturnJFs: true}}
}

// constOf returns the lattice value of formal i of proc name.
func formalVal(a *Analysis, name string, i int) lattice.Value {
	return a.Vals.Formal(a.Prog.Procs[name], i)
}

func globalVal(a *Analysis, name string, block string, idx int) lattice.Value {
	for _, g := range a.Prog.Globals() {
		if g.Block == block && g.Index == idx {
			return a.Vals.Global(a.Prog.Procs[name], g)
		}
	}
	return lattice.TopValue()
}

func wantConst(t *testing.T, v lattice.Value, c int64, what string) {
	t.Helper()
	if got, ok := v.IsConst(); !ok || got != c {
		t.Errorf("%s = %v, want %d", what, v, c)
	}
}

func wantBottom(t *testing.T, v lattice.Value, what string) {
	t.Helper()
	if !v.IsBottom() {
		t.Errorf("%s = %v, want ⊥", what, v)
	}
}

func TestLiteralConstantAtCallSite(t *testing.T) {
	src := `PROGRAM MAIN
CALL S(5)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`
	for _, kind := range []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
		a := analyzeSrc(t, src, configFor(kind))
		wantConst(t, formalVal(a, "S", 0), 5, kind.String()+": N")
	}
}

func TestIntraproceduralBeatsLiteral(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER K
K = 2 + 3
CALL S(K)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`
	a := analyzeSrc(t, src, configFor(jump.Literal))
	wantBottom(t, formalVal(a, "S", 0), "literal: N")
	a = analyzeSrc(t, src, configFor(jump.Intraprocedural))
	wantConst(t, formalVal(a, "S", 0), 5, "intraprocedural: N")
}

func TestPassThroughPropagatesAlongPaths(t *testing.T) {
	src := `PROGRAM MAIN
CALL A(5)
END
SUBROUTINE A(N)
INTEGER N
CALL B(N)
END
SUBROUTINE B(M)
INTEGER M
PRINT *, M
END
`
	// Literal and intraprocedural only cross one edge: B's M stays ⊥.
	a := analyzeSrc(t, src, configFor(jump.Literal))
	wantConst(t, formalVal(a, "A", 0), 5, "literal: A.N")
	wantBottom(t, formalVal(a, "B", 0), "literal: B.M")

	a = analyzeSrc(t, src, configFor(jump.Intraprocedural))
	wantBottom(t, formalVal(a, "B", 0), "intra: B.M")

	a = analyzeSrc(t, src, configFor(jump.PassThrough))
	wantConst(t, formalVal(a, "B", 0), 5, "pass-through: B.M")

	a = analyzeSrc(t, src, configFor(jump.Polynomial))
	wantConst(t, formalVal(a, "B", 0), 5, "polynomial: B.M")
}

func TestPolynomialBeatsPassThrough(t *testing.T) {
	src := `PROGRAM MAIN
CALL A(5)
END
SUBROUTINE A(N)
INTEGER N
CALL B(N*2 + 1)
END
SUBROUTINE B(M)
INTEGER M
PRINT *, M
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	wantBottom(t, formalVal(a, "B", 0), "pass-through: B.M")

	a = analyzeSrc(t, src, configFor(jump.Polynomial))
	wantConst(t, formalVal(a, "B", 0), 11, "polynomial: B.M")
}

func TestConflictingCallSitesMeetToBottom(t *testing.T) {
	src := `PROGRAM MAIN
CALL S(1)
CALL S(2)
CALL T(3)
CALL T(3)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
SUBROUTINE T(N)
INTEGER N
PRINT *, N
END
`
	a := analyzeSrc(t, src, configFor(jump.Polynomial))
	wantBottom(t, formalVal(a, "S", 0), "S.N (1 ∧ 2)")
	wantConst(t, formalVal(a, "T", 0), 3, "T.N (3 ∧ 3)")
}

func TestNeverCalledStaysTop(t *testing.T) {
	src := `PROGRAM MAIN
I = 1
END
SUBROUTINE DEADPROC(N)
INTEGER N
PRINT *, N
END
`
	a := analyzeSrc(t, src, configFor(jump.Polynomial))
	if !formalVal(a, "DEADPROC", 0).IsTop() {
		t.Errorf("never-called formal = %v, want ⊤", formalVal(a, "DEADPROC", 0))
	}
	// ⊤ must not appear in CONSTANTS.
	if cs := a.Constants(a.Prog.Procs["DEADPROC"]); len(cs) != 0 {
		t.Errorf("CONSTANTS(DEADPROC) = %v, want empty", cs)
	}
}

func TestGlobalConstantPropagation(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER G
COMMON /C/ G
G = 7
CALL S
END
SUBROUTINE S()
INTEGER H
COMMON /C/ H
PRINT *, H
END
`
	// Literal misses implicit globals.
	a := analyzeSrc(t, src, configFor(jump.Literal))
	wantBottom(t, globalVal(a, "S", "C", 0), "literal: S global")

	for _, kind := range []jump.Kind{jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
		a := analyzeSrc(t, src, configFor(kind))
		wantConst(t, globalVal(a, "S", "C", 0), 7, kind.String()+": S global")
	}
}

func TestGlobalPassThroughChain(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER G
COMMON /C/ G
G = 7
CALL MID
END
SUBROUTINE MID()
CALL LEAF
END
SUBROUTINE LEAF()
INTEGER H
COMMON /C/ H
PRINT *, H
END
`
	// The global flows through MID (which does not even name it).
	a := analyzeSrc(t, src, configFor(jump.Intraprocedural))
	wantBottom(t, globalVal(a, "LEAF", "C", 0), "intra: LEAF global (single edge only)")

	a = analyzeSrc(t, src, configFor(jump.PassThrough))
	wantConst(t, globalVal(a, "LEAF", "C", 0), 7, "pass-through: LEAF global")
}

func TestReturnJumpFunctionOceanPattern(t *testing.T) {
	// The ocean effect: an initialization routine assigns constants to
	// COMMON variables; return jump functions let later calls see them.
	src := `PROGRAM MAIN
COMMON /CFG/ NX, NY
CALL INIT
CALL WORK
END
SUBROUTINE INIT()
COMMON /CFG/ N1, N2
N1 = 64
N2 = 32
END
SUBROUTINE WORK()
COMMON /CFG/ M1, M2
PRINT *, M1*M2
END
`
	with := configFor(jump.PassThrough)
	a := analyzeSrc(t, src, with)
	wantConst(t, globalVal(a, "WORK", "CFG", 0), 64, "with RJF: WORK NX")
	wantConst(t, globalVal(a, "WORK", "CFG", 1), 32, "with RJF: WORK NY")

	without := with
	without.Jump.UseReturnJFs = false
	a = analyzeSrc(t, src, without)
	wantBottom(t, globalVal(a, "WORK", "CFG", 0), "without RJF: WORK NX")
}

func TestReturnJFOutParameter(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER N
CALL SETUP(N)
CALL USE(N)
END
SUBROUTINE SETUP(K)
INTEGER K
K = 100
END
SUBROUTINE USE(M)
INTEGER M
PRINT *, M
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	wantConst(t, formalVal(a, "USE", 0), 100, "with RJF: USE.M")

	cfg := configFor(jump.PassThrough)
	cfg.Jump.UseReturnJFs = false
	a = analyzeSrc(t, src, cfg)
	wantBottom(t, formalVal(a, "USE", 0), "without RJF: USE.M")
}

func TestFunctionResultConstant(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER N
N = SIZE()
CALL USE(N)
END
INTEGER FUNCTION SIZE()
SIZE = 256
END
SUBROUTINE USE(M)
INTEGER M
PRINT *, M
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	wantConst(t, formalVal(a, "USE", 0), 256, "function result constant")
}

func TestMODEffect(t *testing.T) {
	// X lives in COMMON so a worst-case call may clobber it; with MOD
	// information the analyzer knows OTHER leaves it alone. Return jump
	// functions are disabled to isolate the MOD effect (an identity
	// return jump function would otherwise restore the constant).
	src := `PROGRAM MAIN
INTEGER Y, X
COMMON /XC/ X
X = 1
Y = 0
CALL OTHER(Y)
CALL S(X)
END
SUBROUTINE OTHER(A)
INTEGER A
A = 9
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`
	withMod := configFor(jump.Polynomial)
	withMod.Jump.UseReturnJFs = false
	a := analyzeSrc(t, src, withMod)
	wantConst(t, formalVal(a, "S", 0), 1, "with MOD: S.N")

	noMod := withMod
	noMod.Jump.UseMOD = false
	a = analyzeSrc(t, src, noMod)
	wantBottom(t, formalVal(a, "S", 0), "without MOD: S.N (call kills X)")
}

func TestLocalsSurviveWorstCaseCalls(t *testing.T) {
	// A local never passed to a callee cannot be modified by it, even
	// under worst-case assumptions (F77 has no aliasing into locals).
	src := `PROGRAM MAIN
INTEGER X, Y
X = 1
Y = 0
CALL OTHER(Y)
CALL S(X)
END
SUBROUTINE OTHER(A)
INTEGER A
A = 9
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`
	cfg := configFor(jump.Polynomial)
	cfg.Jump.UseMOD = false
	cfg.Jump.UseReturnJFs = false
	a := analyzeSrc(t, src, cfg)
	wantConst(t, formalVal(a, "S", 0), 1, "no-MOD: S.N via unkillable local")
}

func TestNoMODWithReturnJFRecoversConstActual(t *testing.T) {
	// Without MOD every actual is killed, but a return jump function
	// whose substitution evaluates to a constant restores the value —
	// this is how the paper's column 1 (polynomial without MOD) still
	// finds constants.
	src := `PROGRAM MAIN
INTEGER X
X = 1
CALL KEEP(X)
CALL S(X)
END
SUBROUTINE KEEP(A)
INTEGER A
PRINT *, A
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`
	cfg := configFor(jump.Polynomial)
	cfg.Jump.UseMOD = false
	a := analyzeSrc(t, src, cfg)
	// KEEP does not modify A; its return jump function is the identity
	// Param(A), which substitutes to the constant 1.
	wantConst(t, formalVal(a, "S", 0), 1, "no-MOD + RJF: S.N")

	cfg.Jump.UseReturnJFs = false
	a = analyzeSrc(t, src, cfg)
	wantBottom(t, formalVal(a, "S", 0), "no-MOD no-RJF: S.N")
}

func TestRecursionIsConservativeButSound(t *testing.T) {
	src := `PROGRAM MAIN
CALL R(7, 3)
END
SUBROUTINE R(C, N)
INTEGER C, N
PRINT *, C
IF (N .GT. 0) CALL R(C, N - 1)
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	// C is passed through unchanged in the recursion: stays 7.
	wantConst(t, formalVal(a, "R", 0), 7, "recursive pass-through C")
	// N varies: ⊥.
	wantBottom(t, formalVal(a, "R", 1), "recursive varying N")
}

func TestDataInitialization(t *testing.T) {
	src := `PROGRAM MAIN
COMMON /C/ N
DATA N / 42 /
CALL S
END
SUBROUTINE S()
COMMON /C/ M
PRINT *, M
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	wantConst(t, globalVal(a, "S", "C", 0), 42, "DATA-initialized global")
}

func TestUninitializedGlobalIsBottom(t *testing.T) {
	src := `PROGRAM MAIN
COMMON /C/ N
CALL S
END
SUBROUTINE S()
COMMON /C/ M
PRINT *, M
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	wantBottom(t, globalVal(a, "S", "C", 0), "uninitialized global")
}

func TestCompletePropagationExposesMore(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER N
N = 1
CALL S(N)
END
SUBROUTINE S(K)
INTEGER K, M
IF (K .EQ. 1) THEN
  M = 5
ELSE
  M = 6
ENDIF
CALL T(M)
END
SUBROUTINE T(J)
INTEGER J
PRINT *, J
END
`
	plain := configFor(jump.Polynomial)
	a := analyzeSrc(t, src, plain)
	wantBottom(t, formalVal(a, "T", 0), "plain: T.J (both arms merge)")

	complete := plain
	complete.Complete = true
	a = analyzeSrc(t, src, complete)
	wantConst(t, formalVal(a, "T", 0), 5, "complete: T.J (else arm dead)")
	if a.Stats.Rounds < 2 {
		t.Errorf("complete propagation rounds = %d, want >= 2", a.Stats.Rounds)
	}
	if a.Stats.DeadInstrs == 0 {
		t.Error("complete propagation should report dead instructions")
	}
}

// TestCompletePropagationSharesSSA: every round of complete propagation,
// dead-code counting and substitution read one table of SSA forms,
// which builds each procedure's form once.
func TestCompletePropagationSharesSSA(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER N
N = 1
CALL S(N)
END
SUBROUTINE S(K)
INTEGER K, M
IF (K .EQ. 1) THEN
  M = 5
ELSE
  M = 6
ENDIF
CALL T(M)
END
SUBROUTINE T(J)
INTEGER J
PRINT *, J
END
`
	for _, par := range []int{1, 4} {
		cfg := configFor(jump.Polynomial)
		cfg.Complete = true
		cfg.Parallelism = par
		a := analyzeSrc(t, src, cfg)
		if a.Stats.Rounds < 2 {
			t.Fatalf("par %d: rounds = %d, want >= 2", par, a.Stats.Rounds)
		}
		sub := a.Substitute()
		if sub.Total == 0 {
			t.Fatalf("par %d: no substitutions", par)
		}
		// The last round ran under the converged entry constants, so
		// substitution counts every procedure from its stored numbering.
		if sub.Reanalyzed != 0 {
			t.Errorf("par %d: substitution re-analyzed %d procedures, want 0", par, sub.Reanalyzed)
		}
		if got, want := a.forms.Built(), len(a.Prog.Order); got != want {
			t.Errorf("par %d: %d SSA forms built over %d rounds and subst, want %d", par, got, a.Stats.Rounds, want)
		}
		for i, n := range a.Graph.Order {
			if a.Funcs.Procs[n.Proc].Intra.F != a.forms.Func(i) {
				t.Errorf("par %d: %s's jump functions were built over another SSA form", par, n.Proc.Name)
			}
		}
		// A re-analysis reads the analysis's table: a fresh one fills.
		a.forms = newForms(a.Graph, a.Mod, true)
		opts := a.substOptions()
		opts.Intra = nil
		if sub := subst.Run(a.Graph, a.Mod, a.forms, opts); sub.Reanalyzed != len(a.Prog.Order) {
			t.Errorf("par %d: %d procedures re-analyzed without stored numberings, want %d", par, sub.Reanalyzed, len(a.Prog.Order))
		}
		if got, want := a.forms.Built(), len(a.Prog.Order); got != want {
			t.Errorf("par %d: substitution built %d forms in the analysis's table, want %d", par, got, want)
		}
	}
}

func TestSolverEquivalence(t *testing.T) {
	srcs := []string{
		`PROGRAM MAIN
INTEGER G
COMMON /C/ G
G = 7
CALL A(5)
CALL A(5)
CALL B(2)
END
SUBROUTINE A(N)
INTEGER N
CALL B(N)
END
SUBROUTINE B(M)
INTEGER M, H
COMMON /C/ H
PRINT *, M + H
END
`,
		`PROGRAM MAIN
CALL A(5)
CALL A(6)
END
SUBROUTINE A(N)
INTEGER N
CALL B(N*2)
END
SUBROUTINE B(M)
INTEGER M
PRINT *, M
END
`,
		`PROGRAM MAIN
INTEGER N
CALL SETUP(N)
CALL USE(N)
END
SUBROUTINE SETUP(K)
INTEGER K
K = 100
END
SUBROUTINE USE(M)
INTEGER M
CALL USE2(M)
END
SUBROUTINE USE2(M)
INTEGER M
PRINT *, M
END
`,
	}
	for i, src := range srcs {
		for _, kind := range []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
			cfgW := configFor(kind)
			cfgB := cfgW
			cfgB.Solver = SolverBinding
			aw := analyzeSrc(t, src, cfgW)
			ab := analyzeSrc(t, src, cfgB)
			for _, p := range aw.Prog.Order {
				pb := ab.Prog.Procs[p.Name]
				for fi := range p.Formals {
					if aw.Vals.Formal(p, fi) != ab.Vals.Formal(pb, fi) {
						t.Errorf("src %d %v: solver mismatch on %s formal %d: %v vs %v",
							i, kind, p.Name, fi, aw.Vals.Formal(p, fi), ab.Vals.Formal(pb, fi))
					}
				}
				for _, g := range aw.Prog.Globals() {
					var gb *sem.GlobalVar
					for _, g2 := range ab.Prog.Globals() {
						if g2.Block == g.Block && g2.Index == g.Index {
							gb = g2
						}
					}
					if aw.Vals.Global(p, g) != ab.Vals.Global(pb, gb) {
						t.Errorf("src %d %v: solver mismatch on %s global %s", i, kind, p.Name, g.Key())
					}
				}
			}
		}
	}
}

func TestSubstitutionCountsHierarchy(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER K, G
COMMON /C/ G
G = 3
K = 2 + 2
CALL A(5)
CALL A(5)
CALL USE(K)
END
SUBROUTINE A(N)
INTEGER N
CALL B(N)
CALL POLY(N*2)
END
SUBROUTINE B(M)
INTEGER M
PRINT *, M + 1
END
SUBROUTINE POLY(P)
INTEGER P
PRINT *, P - 1
END
SUBROUTINE USE(X)
INTEGER X, H
COMMON /C/ H
PRINT *, X*H
END
`
	counts := make(map[jump.Kind]int)
	for _, kind := range []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
		a := analyzeSrc(t, src, configFor(kind))
		counts[kind] = a.Substitute().Total
	}
	if !(counts[jump.Literal] <= counts[jump.Intraprocedural] &&
		counts[jump.Intraprocedural] <= counts[jump.PassThrough] &&
		counts[jump.PassThrough] <= counts[jump.Polynomial]) {
		t.Errorf("hierarchy violated: %v", counts)
	}
	if counts[jump.Polynomial] <= counts[jump.PassThrough] {
		t.Errorf("polynomial should beat pass-through here: %v", counts)
	}
	if counts[jump.Intraprocedural] <= counts[jump.Literal] {
		t.Errorf("intraprocedural should beat literal here: %v", counts)
	}
}

func TestTransformedSource(t *testing.T) {
	src := `PROGRAM MAIN
CALL S(5)
END
SUBROUTINE S(N)
INTEGER N, M
M = N + 1
PRINT *, M
END
`
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	a := AnalyzeProgram(prog, configFor(jump.PassThrough))
	out := a.TransformedSource(f)
	if !strings.Contains(out, "M = 5 + 1") {
		t.Errorf("transformed source should substitute N:\n%s", out)
	}
	// The transformed source must still parse.
	var diags2 source.ErrorList
	parser.ParseSource("t2.f", out, &diags2)
	if diags2.HasErrors() {
		t.Errorf("transformed source does not parse:\n%s\n%s", out, diags2.Error())
	}
}

// TestTransformedSourceReparses: the transformed text of programs that
// reach the writer's edge cases must parse and print what the original
// prints. The minimum int64 has no literal of its own, and blank COMMON
// has no "//" form in the grammar.
func TestTransformedSourceReparses(t *testing.T) {
	cases := []struct{ name, src, subst, want string }{
		{"min-int64", `PROGRAM MAIN
INTEGER K
K = 9223372036854775807
CALL S(K)
END
SUBROUTINE S(N)
INTEGER N, M
M = N + 1
PRINT *, M
END
`, "PRINT *, (-9223372036854775807 - 1)", "-9223372036854775808"},
		{"blank-common", `PROGRAM MAIN
INTEGER G
COMMON G
G = 3
CALL S
END
SUBROUTINE S
INTEGER G
COMMON G
PRINT *, G
END
`, "PRINT *, 3", "3"},
	}
	for _, tc := range cases {
		var diags source.ErrorList
		f := parser.ParseSource("t.f", tc.src, &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		out := AnalyzeProgram(prog, DefaultConfig()).TransformedSource(f)
		if !strings.Contains(out, tc.subst) {
			t.Errorf("%s: transformed source lacks %q:\n%s", tc.name, tc.subst, out)
		}
		var diags2 source.ErrorList
		f2 := parser.ParseSource("t2.f", out, &diags2)
		prog2 := sem.Analyze(f2, &diags2)
		if diags2.HasErrors() {
			t.Errorf("%s: transformed source does not parse:\n%s\n%s", tc.name, out, diags2.Error())
			continue
		}
		before, err := interp.Run(prog, interp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after, err := interp.Run(prog2, interp.Options{})
		if err != nil {
			t.Fatalf("%s: transformed execution: %v", tc.name, err)
		}
		if strings.TrimSpace(before.Output) != tc.want || after.Output != before.Output {
			t.Errorf("%s: original prints %q, transformed %q, want %q", tc.name, before.Output, after.Output, tc.want)
		}
	}
}

func TestConstantsSetContents(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER G
COMMON /C/ G
G = 9
CALL S(4, 5)
END
SUBROUTINE S(A, B)
INTEGER A, B, H
COMMON /C/ H
PRINT *, A + B + H
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	cs := a.Constants(a.Prog.Procs["S"])
	if len(cs) != 3 {
		t.Fatalf("CONSTANTS(S) = %v, want 3 entries", cs)
	}
	byName := make(map[string]int64)
	for _, c := range cs {
		byName[c.Name] = c.Value
	}
	if byName["A"] != 4 || byName["B"] != 5 || byName["G"] != 9 {
		t.Errorf("CONSTANTS(S) = %v", cs)
	}
	all := a.AllConstants()
	if len(all) != 2 {
		t.Errorf("AllConstants procs = %d", len(all))
	}
}

func TestIntraproceduralBaseline(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER K
K = 10
PRINT *, K + 1
CALL S(K)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`
	res := IntraproceduralCount(mustProg(t, src))
	// K's use in PRINT and in CALL S(K) (N not modified) are constant;
	// N's use in S is not (no interprocedural flow).
	if res.Total != 2 {
		t.Errorf("intraprocedural count = %d, want 2", res.Total)
	}
}

func mustProg(t *testing.T, src string) *sem.Program {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	return prog
}

func TestStatsPopulated(t *testing.T) {
	a := analyzeSrc(t, `PROGRAM MAIN
CALL S(5)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`, configFor(jump.PassThrough))
	if a.Stats.JFEvaluations == 0 {
		t.Error("JFEvaluations should be counted")
	}
	if a.Stats.Lowerings == 0 {
		t.Error("Lowerings should be counted")
	}
	if a.Stats.Rounds != 1 {
		t.Errorf("Rounds = %d", a.Stats.Rounds)
	}
}

func TestValuesStringAndSolverString(t *testing.T) {
	a := analyzeSrc(t, `PROGRAM MAIN
CALL S(5)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`, configFor(jump.PassThrough))
	if !strings.Contains(a.Vals.String(), "N=5") {
		t.Errorf("Values.String:\n%s", a.Vals.String())
	}
	if SolverWorklist.String() != "worklist" || SolverBinding.String() != "binding-graph" {
		t.Error("SolverKind strings")
	}
}

func TestKnownButIrrelevantConstants(t *testing.T) {
	// G is constant on entry to both procedures, but only USED reads it
	// — in IGNORES it is "known but irrelevant" (Metzger & Stroud).
	src := `PROGRAM MAIN
INTEGER G
COMMON /C/ G
G = 7
CALL USED
CALL IGNORES(2)
END
SUBROUTINE USED()
INTEGER H
COMMON /C/ H
PRINT *, H
END
SUBROUTINE IGNORES(N)
INTEGER N
PRINT *, N
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	used := a.Constants(a.Prog.Procs["USED"])
	if len(used) != 1 || !used[0].Referenced {
		t.Errorf("USED constants = %+v, want one referenced", used)
	}
	ign := a.Constants(a.Prog.Procs["IGNORES"])
	var gRef, nRef *Constant
	for i := range ign {
		if ign[i].Global != nil {
			gRef = &ign[i]
		} else {
			nRef = &ign[i]
		}
	}
	if gRef == nil || gRef.Referenced {
		t.Errorf("global in IGNORES should be known but irrelevant: %+v", ign)
	}
	if nRef == nil || !nRef.Referenced {
		t.Errorf("N in IGNORES is printed, hence referenced: %+v", ign)
	}
}

// TestGlobalPassedAsActualAliasing is the regression test for a bug the
// soundness property test caught during development: a COMMON variable
// passed as an actual aliases the callee's formal, and the callee may
// ALSO write the storage under its COMMON name — so the formal's return
// jump function alone must not determine the post-call value.
func TestGlobalPassedAsActualAliasing(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER NG
COMMON /G/ NG
NG = 13
CALL BOTH(NG)
CALL OBSERVE(NG)
END
SUBROUTINE BOTH(K)
INTEGER K, NG2
COMMON /G/ NG2
NG2 = 27
END
SUBROUTINE OBSERVE(V)
INTEGER V
PRINT *, V
END
`
	// BOTH never writes its formal K, so K's return jump function is the
	// identity — but K aliases NG, which BOTH sets to 27. Claiming
	// NG=13 after the call would be unsound.
	for _, kind := range []jump.Kind{jump.PassThrough, jump.Polynomial} {
		a := analyzeSrc(t, src, configFor(kind))
		wantBottom(t, formalVal(a, "OBSERVE", 0), kind.String()+": OBSERVE.V (aliased global)")
	}
	// The interpreter confirms 27 is observed.
	out, err := interpOutput(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "27" {
		t.Fatalf("interpreter output = %q, want 27", out)
	}
}

func interpOutput(t *testing.T, src string) (string, error) {
	t.Helper()
	prog := mustProg(t, src)
	res, err := interp.Run(prog, interp.Options{})
	if err != nil {
		return "", err
	}
	return res.Output, nil
}

// TestStopOnlyAndNonReturningProcedures: a procedure that always STOPs
// (or loops forever) has an unreachable exit; analysis must stay sound
// and calm.
func TestStopOnlyAndNonReturningProcedures(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER N
N = 5
CALL CHECK(N)
CALL AFTER(N)
END
SUBROUTINE CHECK(K)
INTEGER K
IF (K .LT. 0) STOP
END
SUBROUTINE HALT()
STOP
END
SUBROUTINE AFTER(M)
INTEGER M
PRINT *, M
END
`
	a := analyzeSrc(t, src, configFor(jump.PassThrough))
	// CHECK returns normally on the N=5 path; N flows on to AFTER.
	wantConst(t, formalVal(a, "AFTER", 0), 5, "AFTER.M")
	// CHECK's formal received the constant; HALT is never called and
	// never returns: no crash, ⊤ is fine.
	wantConst(t, formalVal(a, "CHECK", 0), 5, "CHECK.K")
}

// TestDeepGammaNesting: gated mode on a cascade of conditionals.
func TestDeepGammaNesting(t *testing.T) {
	src := `PROGRAM MAIN
CALL S(2)
END
SUBROUTINE S(K)
INTEGER K, M
IF (K .EQ. 1) THEN
  M = 10
ELSE
  IF (K .EQ. 2) THEN
    M = 20
  ELSE
    IF (K .EQ. 3) THEN
      M = 30
    ELSE
      M = 40
    ENDIF
  ENDIF
ENDIF
CALL T(M)
END
SUBROUTINE T(J)
INTEGER J
PRINT *, J
END
`
	gated := Config{Jump: jump.Config{Kind: jump.Polynomial, UseMOD: true, UseReturnJFs: true, Gated: true}}
	a := analyzeSrc(t, src, gated)
	wantConst(t, formalVal(a, "T", 0), 20, "gated nested: T.J")
}
