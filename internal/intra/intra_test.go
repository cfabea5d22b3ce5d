package intra

import (
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/symbolic"
)

type harness struct {
	prog *sem.Program
	cg   *callgraph.Graph
	info *modref.Info
	b    *symbolic.Builder
}

func newHarness(t *testing.T, src string) *harness {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	cg := callgraph.Build(prog)
	return &harness{prog: prog, cg: cg, info: modref.Compute(cg), b: symbolic.NewBuilder()}
}

func (h *harness) ssaOf(name string, useMod bool) *ssa.Func {
	n := h.cg.Nodes[name]
	dt := dom.Compute(n.CFG)
	opts := ssa.Options{Globals: h.prog.Globals()}
	if useMod {
		opts.Kills = h.info.Kills
	}
	return ssa.Build(n.CFG, dt, opts)
}

func (h *harness) analyze(t *testing.T, name string, opts Options) (*Result, *ssa.Func) {
	t.Helper()
	fn := h.ssaOf(name, true)
	opts.Builder = h.b
	return Analyze(fn, opts), fn
}

// exprOfUse finds the expression of the i-th argument of the only PRINT.
func printArgExpr(t *testing.T, r *Result, fn *ssa.Func, i int) *symbolic.Expr {
	t.Helper()
	for _, blk := range fn.Graph.Blocks {
		for _, in := range blk.Instrs {
			if in.Kind == cfg.InstrPrint {
				return r.ExprOf(fn.UseVal(in.Args[i]))
			}
		}
	}
	t.Fatal("no PRINT found")
	return nil
}

func TestStraightLineConstants(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I, J
I = 2 + 3
J = I * 4
PRINT *, J
END
`)
	r, fn := h.analyze(t, "P", Options{})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 20 {
		t.Errorf("J = %v, want 20", e)
	}
}

func TestFormalsStaySymbolic(t *testing.T) {
	h := newHarness(t, `PROGRAM MAIN
CALL S(3)
END
SUBROUTINE S(N)
INTEGER N, M
M = N + 1
PRINT *, M
END
`)
	r, fn := h.analyze(t, "S", Options{})
	e := printArgExpr(t, r, fn, 0)
	if _, ok := e.IsConst(); ok {
		t.Fatalf("M should be symbolic (N+1), got %v", e)
	}
	if len(e.Support()) != 1 || e.Support()[0].Param == nil || e.Support()[0].Param.Name != "N" {
		t.Errorf("support of M = %v", e.Support())
	}
}

func TestEntryEnvironmentFolds(t *testing.T) {
	h := newHarness(t, `PROGRAM MAIN
CALL S(3)
END
SUBROUTINE S(N)
INTEGER N, M
M = N + 1
PRINT *, M
END
`)
	s := h.prog.Procs["S"]
	entry := map[ssa.Var]int64{ssa.VarOf(s.Formals[0]): 3}
	r, fn := h.analyze(t, "S", Options{Entry: entry})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 4 {
		t.Errorf("M = %v, want 4", e)
	}
}

func TestPhiMergeEqualValues(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I, J
READ *, I
IF (I .GT. 0) THEN
  J = 7
ELSE
  J = 7
ENDIF
PRINT *, J
END
`)
	r, fn := h.analyze(t, "P", Options{})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 7 {
		t.Errorf("J = %v, want 7 (both arms equal)", e)
	}
}

func TestPhiMergeDifferentValues(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I, J
READ *, I
IF (I .GT. 0) THEN
  J = 7
ELSE
  J = 8
ENDIF
PRINT *, J
END
`)
	r, fn := h.analyze(t, "P", Options{})
	e := printArgExpr(t, r, fn, 0)
	if !e.HasOpaque() {
		t.Errorf("J = %v, want opaque", e)
	}
}

func TestLoopInvariantConstant(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I, K, S
K = 5
S = 0
DO I = 1, 10
  S = S + K
ENDDO
PRINT *, K, S
END
`)
	r, fn := h.analyze(t, "P", Options{})
	k := printArgExpr(t, r, fn, 0)
	if c, ok := k.IsConst(); !ok || c != 5 {
		t.Errorf("K = %v, want 5 through the loop", k)
	}
	s := printArgExpr(t, r, fn, 1)
	if _, ok := s.IsConst(); ok {
		t.Errorf("S = %v, must not be constant", s)
	}
}

func TestPruningFoldsConstantBranch(t *testing.T) {
	src := `PROGRAM P
INTEGER I, J
I = 1
IF (I .EQ. 1) THEN
  J = 10
ELSE
  J = 20
ENDIF
PRINT *, J
END
`
	h := newHarness(t, src)
	// Without pruning: both arms merge, J is opaque.
	r, fn := h.analyze(t, "P", Options{Prune: false})
	e := printArgExpr(t, r, fn, 0)
	if _, ok := e.IsConst(); ok {
		t.Errorf("without pruning J should not be constant, got %v", e)
	}
	// With pruning: only the true arm executes, J = 10.
	h2 := newHarness(t, src)
	r2, fn2 := h2.analyze(t, "P", Options{Prune: true})
	e2 := printArgExpr(t, r2, fn2, 0)
	if c, ok := e2.IsConst(); !ok || c != 10 {
		t.Errorf("with pruning J = %v, want 10", e2)
	}
	// And the dead block is not executable.
	deadSeen := false
	for _, blk := range fn2.Graph.Blocks {
		if !r2.BlockExecutable(blk) && blk != fn2.Graph.Exit {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Error("pruning should leave the ELSE arm non-executable")
	}
}

func TestCallKillsWithoutReturnJF(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER X
X = 1
CALL S(X)
PRINT *, X
END
SUBROUTINE S(A)
INTEGER A
A = 2
END
`)
	r, fn := h.analyze(t, "P", Options{})
	e := printArgExpr(t, r, fn, 0)
	if !e.HasOpaque() {
		t.Errorf("X after call = %v, want opaque (no return JFs)", e)
	}
}

func TestReturnJFMakesPostCallConstant(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER X
X = 1
CALL S(X)
PRINT *, X
END
SUBROUTINE S(A)
INTEGER A
A = 2
END
`)
	s := h.prog.Procs["S"]
	rjf := &ReturnSummary{
		Proc:    s,
		Formals: map[int]*symbolic.Expr{0: h.b.Const(2)},
	}
	r, fn := h.analyze(t, "P", Options{
		ReturnJF: func(callee string) *ReturnSummary {
			if callee == "S" {
				return rjf
			}
			return nil
		},
	})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 2 {
		t.Errorf("X after call = %v, want 2 via return JF", e)
	}
}

func TestReturnJFSubstitutesActuals(t *testing.T) {
	// S sets A = B + 1; calling S(X, 4) must leave X = 5.
	h := newHarness(t, `PROGRAM P
INTEGER X
X = 1
CALL S(X, 4)
PRINT *, X
END
SUBROUTINE S(A, B)
INTEGER A, B
A = B + 1
END
`)
	s := h.prog.Procs["S"]
	bLeaf := h.b.ParamLeaf(s.Formals[1])
	rjf := &ReturnSummary{
		Proc:    s,
		Formals: map[int]*symbolic.Expr{0: h.b.Binary(symbolic.OpAdd, bLeaf, h.b.Const(1))},
	}
	r, fn := h.analyze(t, "P", Options{
		ReturnJF: func(string) *ReturnSummary { return rjf },
	})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 5 {
		t.Errorf("X = %v, want 5", e)
	}
}

func TestPaperLimitationNonConstantRJF(t *testing.T) {
	// S sets A = B + 1 where B's actual is the caller's formal: the
	// substituted RJF is symbolic. The paper's implementation drops it
	// to ⊥; FullSubstitution keeps it.
	src := `PROGRAM MAIN
INTEGER I
I = 1
CALL CALLER(I)
END
SUBROUTINE CALLER(N)
INTEGER N, X
X = 0
CALL S(X, N)
PRINT *, X
END
SUBROUTINE S(A, B)
INTEGER A, B
A = B + 1
END
`
	build := func(h *harness) *ReturnSummary {
		s := h.prog.Procs["S"]
		return &ReturnSummary{
			Proc:    s,
			Formals: map[int]*symbolic.Expr{0: h.b.Binary(symbolic.OpAdd, h.b.ParamLeaf(s.Formals[1]), h.b.Const(1))},
		}
	}
	h := newHarness(t, src)
	rjf := build(h)
	r, fn := h.analyze(t, "CALLER", Options{
		ReturnJF: func(string) *ReturnSummary { return rjf },
	})
	e := printArgExpr(t, r, fn, 0)
	if !e.HasOpaque() {
		t.Errorf("paper mode: X = %v, want opaque", e)
	}

	h2 := newHarness(t, src)
	rjf2 := build(h2)
	r2, fn2 := h2.analyze(t, "CALLER", Options{
		ReturnJF:         func(string) *ReturnSummary { return rjf2 },
		FullSubstitution: true,
	})
	e2 := printArgExpr(t, r2, fn2, 0)
	if e2.HasOpaque() {
		t.Errorf("full substitution: X = %v, want symbolic N+1", e2)
	}
	if len(e2.Support()) != 1 {
		t.Errorf("support = %v", e2.Support())
	}
}

func TestFunctionResultViaRJF(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I
I = F(4)
PRINT *, I
END
INTEGER FUNCTION F(X)
INTEGER X
F = X * 10
END
`)
	f := h.prog.Procs["F"]
	rjf := &ReturnSummary{
		Proc:   f,
		Result: h.b.Binary(symbolic.OpMul, h.b.ParamLeaf(f.Formals[0]), h.b.Const(10)),
	}
	r, fn := h.analyze(t, "P", Options{
		ReturnJF: func(string) *ReturnSummary { return rjf },
	})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 40 {
		t.Errorf("I = %v, want 40", e)
	}
}

func TestGlobalPassThroughCall(t *testing.T) {
	// A call that does not touch the global (with MOD info) leaves the
	// global's constant intact.
	h := newHarness(t, `PROGRAM P
INTEGER X, G
COMMON /C/ G
G = 11
X = 0
CALL S(X)
PRINT *, G
END
SUBROUTINE S(A)
INTEGER A
A = 1
END
`)
	r, fn := h.analyze(t, "P", Options{})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 11 {
		t.Errorf("G after untouching call = %v, want 11", e)
	}
}

func TestExitExprForReturnJFGeneration(t *testing.T) {
	h := newHarness(t, `PROGRAM MAIN
INTEGER I
CALL S(I, 3)
END
SUBROUTINE S(A, B)
INTEGER A, B
A = B * B + 1
END
`)
	r, fn := h.analyze(t, "S", Options{})
	s := h.prog.Procs["S"]
	av := fn.ExitVal(ssa.VarOf(s.Formals[0]))
	e := r.ExprOf(av)
	if e == nil || e.HasOpaque() {
		t.Fatalf("exit expr of A = %v", e)
	}
	// Evaluate at B=3 → 10.
	got := h.b.Substitute(e, func(leaf *symbolic.Expr) *symbolic.Expr {
		if leaf.Param == s.Formals[1] {
			return h.b.Const(3)
		}
		return leaf
	})
	if c, ok := got.IsConst(); !ok || c != 10 {
		t.Errorf("A(B=3) = %v, want 10", got)
	}
}

func TestDeadCodeValuesStayTop(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I, J
I = 1
IF (I .EQ. 2) THEN
  J = 3
ELSE
  J = 4
ENDIF
PRINT *, J
END
`)
	r, fn := h.analyze(t, "P", Options{Prune: true})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 4 {
		t.Errorf("J = %v, want 4 (true arm dead)", e)
	}
}

func TestIntrinsicThroughEngine(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I
I = MAX(MOD(17, 5), MIN(9, 4))
PRINT *, I
END
`)
	r, fn := h.analyze(t, "P", Options{})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 4 {
		t.Errorf("I = %v, want 4", e)
	}
}

func TestEdgeExecutability(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER J
IF (1 .GT. 2) THEN
  J = 1
ELSE
  J = 2
ENDIF
PRINT *, J
END
`)
	r, fn := h.analyze(t, "P", Options{Prune: true})
	entry := fn.Graph.Entry
	if r.EdgeExecutable(entry, 0) {
		t.Error("true edge of a false condition should be dead")
	}
	if !r.EdgeExecutable(entry, 1) {
		t.Error("false edge should be live")
	}
}

func TestConstOfHelper(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I
I = 6 * 7
PRINT *, I
END
`)
	r, fn := h.analyze(t, "P", Options{})
	for _, blk := range fn.Graph.Blocks {
		for _, in := range blk.Instrs {
			if in.Kind == cfg.InstrPrint {
				if c, ok := r.ConstOf(fn.UseVal(in.Args[0])); !ok || c != 42 {
					t.Errorf("ConstOf = %v %v", c, ok)
				}
			}
		}
	}
	if _, ok := r.ConstOf(nil); ok {
		t.Error("ConstOf(nil) should be false")
	}
}

func TestGatedGammaInEngine(t *testing.T) {
	h := newHarness(t, `PROGRAM MAIN
CALL S(2)
END
SUBROUTINE S(K)
INTEGER K, M
IF (K .EQ. 1) THEN
  M = 10
ELSE
  M = 20
ENDIF
PRINT *, M
END
`)
	r, fn := h.analyze(t, "S", Options{Gated: true})
	e := printArgExpr(t, r, fn, 0)
	if e.Op != symbolic.OpGamma {
		t.Fatalf("M = %v, want a γ expression", e)
	}
	// Its support is exactly K.
	if len(e.Support()) != 1 || e.Support()[0].Param.Name != "K" {
		t.Errorf("support = %v", e.Support())
	}
	// Substituting K=2 folds to 20.
	got := h.b.Substitute(e, func(leaf *symbolic.Expr) *symbolic.Expr {
		return h.b.Const(2)
	})
	if c, ok := got.IsConst(); !ok || c != 20 {
		t.Errorf("γ(K=2) = %v, want 20", got)
	}
}

func TestGatedFallsBackOnLoops(t *testing.T) {
	// A loop-carried phi has no controlling two-way conditional at its
	// immediate dominator in the required shape — gated mode must fall
	// back to ⊥, never mis-gate.
	h := newHarness(t, `PROGRAM MAIN
CALL S(3)
END
SUBROUTINE S(K)
INTEGER K, M, I
M = 0
DO I = 1, K
  M = M + I
ENDDO
PRINT *, M
END
`)
	r, fn := h.analyze(t, "S", Options{Gated: true})
	e := printArgExpr(t, r, fn, 0)
	if !e.HasOpaque() {
		t.Errorf("loop-carried M = %v, want opaque", e)
	}
}

func TestUnaryArithInEngine(t *testing.T) {
	h := newHarness(t, `PROGRAM P
INTEGER I
LOGICAL L
I = -(3 + 4)
L = .NOT. (1 .GT. 2)
PRINT *, I
END
`)
	r, fn := h.analyze(t, "P", Options{})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != -7 {
		t.Errorf("I = %v, want -7", e)
	}
}

func TestPostCallGlobalViaReturnSummary(t *testing.T) {
	// A global killed at a call is restored by the callee's global
	// return jump function.
	h := newHarness(t, `PROGRAM P
INTEGER NG
COMMON /C/ NG
NG = 1
CALL SETG
PRINT *, NG
END
SUBROUTINE SETG()
INTEGER NH
COMMON /C/ NH
NH = 77
END
`)
	g := h.prog.CommonBlocks["C"][0]
	sum := &ReturnSummary{
		Proc:    h.prog.Procs["SETG"],
		Globals: map[*sem.GlobalVar]*symbolic.Expr{g: h.b.Const(77)},
	}
	r, fn := h.analyze(t, "P", Options{
		ReturnJF: func(string) *ReturnSummary { return sum },
		GMod:     func(string, *sem.GlobalVar) bool { return true },
	})
	e := printArgExpr(t, r, fn, 0)
	if c, ok := e.IsConst(); !ok || c != 77 {
		t.Errorf("NG after call = %v, want 77", e)
	}
}

func TestAliasGuardInEngine(t *testing.T) {
	// Global passed as an actual while the callee GMODs it: opaque.
	h := newHarness(t, `PROGRAM P
INTEGER NG
COMMON /C/ NG
NG = 13
CALL BOTH(NG)
PRINT *, NG
END
SUBROUTINE BOTH(K)
INTEGER K, NH
COMMON /C/ NH
NH = 27
END
`)
	g := h.prog.CommonBlocks["C"][0]
	both := h.prog.Procs["BOTH"]
	sum := &ReturnSummary{
		Proc:    both,
		Formals: map[int]*symbolic.Expr{0: h.b.ParamLeaf(both.Formals[0])}, // identity
		Globals: map[*sem.GlobalVar]*symbolic.Expr{g: h.b.Const(27)},
	}
	r, fn := h.analyze(t, "P", Options{
		ReturnJF: func(string) *ReturnSummary { return sum },
		GMod:     func(string, *sem.GlobalVar) bool { return true },
	})
	e := printArgExpr(t, r, fn, 0)
	if !e.HasOpaque() {
		t.Errorf("aliased NG = %v, want opaque", e)
	}
}
