package ssa

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/suite"
)

// buildSSA runs the full front end and returns the SSA of one procedure
// with real MOD-based kills.
func buildSSA(t *testing.T, src, name string) (*Func, *sem.Program) {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	cg := callgraph.Build(prog)
	info := modref.Compute(cg)
	n := cg.Nodes[name]
	if n == nil {
		t.Fatalf("no procedure %s", name)
	}
	dt := dom.Compute(n.CFG)
	fn := Build(n.CFG, dt, Options{Kills: info.Kills, Globals: prog.Globals()})
	return fn, prog
}

// buildSSANoMod builds SSA with worst-case kill assumptions.
func buildSSANoMod(t *testing.T, src, name string) *Func {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	cg := callgraph.Build(prog)
	n := cg.Nodes[name]
	dt := dom.Compute(n.CFG)
	return Build(n.CFG, dt, Options{Globals: prog.Globals()})
}

func TestSingleAssignmentProperty(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER I, J
I = 1
I = I + 1
IF (I .GT. 0) THEN
  J = I
ELSE
  J = 2
ENDIF
PRINT *, J
END
`, "P")
	// Every value appears exactly once in fn.Values with a unique ID.
	seen := make(map[int32]bool)
	for _, v := range fn.Values {
		if seen[v.ID] {
			t.Fatalf("duplicate value ID %d", v.ID)
		}
		seen[v.ID] = true
	}
}

func TestPhiPlacementAtJoin(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER I, J
READ *, I
IF (I .GT. 0) THEN
  J = 1
ELSE
  J = 2
ENDIF
PRINT *, J
END
`, "P")
	// Find a phi for J.
	var phi *Value
	for _, blk := range fn.Graph.Blocks {
		for _, p := range fn.Phis(blk) {
			if p.AuxVar.Sym != nil && p.AuxVar.Sym.Name == "J" {
				phi = p
			}
		}
	}
	if phi == nil {
		t.Fatal("no phi for J at the join")
	}
	if len(phi.Args) != 2 {
		t.Fatalf("phi args = %d", len(phi.Args))
	}
	for _, a := range phi.Args {
		if a == nil {
			t.Fatal("phi arg not filled")
		}
		if a.Op != OpConst {
			t.Errorf("phi arg should be a constant, got %v", a)
		}
	}
}

func TestLoopPhi(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER I, S
S = 0
DO I = 1, 10
  S = S + I
ENDDO
PRINT *, S
END
`, "P")
	// S needs a phi at the loop head merging 0 and S+I.
	var sPhis int
	for _, blk := range fn.Graph.Blocks {
		for _, p := range fn.Phis(blk) {
			if p.AuxVar.Sym != nil && p.AuxVar.Sym.Name == "S" {
				sPhis++
			}
		}
	}
	if sPhis == 0 {
		t.Error("no phi for S at the loop head")
	}
}

func TestDominanceOfUses(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER I, J, K
READ *, I
J = I * 2
IF (J .GT. 4) THEN
  K = J + 1
ELSE
  K = J - 1
ENDIF
PRINT *, K
END
`, "P")
	// SSA invariant: for every non-phi value, each argument's defining
	// block dominates the value's block.
	for _, v := range fn.Values {
		if v.Op == OpPhi {
			// Phi args must be defined in blocks dominating the
			// corresponding predecessor (weaker check: defined somewhere).
			continue
		}
		for _, a := range v.Args {
			if a == nil {
				t.Fatalf("nil arg on %v", v)
			}
			if !fn.Dom.Dominates(a.Block, v.Block) {
				t.Errorf("def %v in b%d does not dominate use %v in b%d", a, a.Block.ID, v, v.Block.ID)
			}
		}
	}
}

func TestParamAndGlobalEntryValues(t *testing.T) {
	fn, prog := buildSSA(t, `PROGRAM MAIN
CALL S(1, 2)
END
SUBROUTINE S(A, B)
INTEGER A, B, G
COMMON /C/ G
PRINT *, A + B + G
END
`, "S")
	s := prog.Procs["S"]
	if entryVal(fn, OpParam, VarOf(s.Formals[0])) == nil || entryVal(fn, OpParam, VarOf(s.Formals[1])) == nil {
		t.Fatal("missing param entry values")
	}
	g := prog.CommonBlocks["C"][0]
	if entryVal(fn, OpGlobalIn, GlobalVar(g)) == nil {
		t.Fatal("missing global entry value")
	}
}

// entryVal returns fn's entry value of op for v, or nil.
func entryVal(fn *Func, op ValOp, v Var) *Value {
	for _, val := range fn.Values {
		if val.Op == op && val.AuxVar == v && val.Block == fn.Graph.Entry {
			return val
		}
	}
	return nil
}

func TestExitValsIdentityForUnmodifiedFormal(t *testing.T) {
	fn, prog := buildSSA(t, `PROGRAM MAIN
INTEGER I
CALL S(I, 2)
END
SUBROUTINE S(A, B)
INTEGER A, B
A = B + 1
END
`, "S")
	s := prog.Procs["S"]
	aVar := VarOf(s.Formals[0])
	bVar := VarOf(s.Formals[1])
	av := fn.ExitVal(aVar)
	bv := fn.ExitVal(bVar)
	if bv == nil || bv.Op != OpParam {
		t.Errorf("unmodified B at exit should be its entry param, got %v", bv)
	}
	if av == nil || av.Op != OpArith {
		t.Errorf("A at exit should be B+1 arith, got %v", av)
	}
}

func TestCallKillsWithMod(t *testing.T) {
	src := `PROGRAM P
INTEGER X, Y
X = 1
Y = 2
CALL S(X, Y)
PRINT *, X, Y
END
SUBROUTINE S(A, B)
INTEGER A, B
A = 99
END
`
	fn, _ := buildSSA(t, src, "P")
	// After the call, X must be a PostCall value; Y must still be the
	// constant 2 (B not in MOD(S)).
	var printInstr *cfg.Instr
	for _, b := range fn.Graph.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == cfg.InstrPrint {
				printInstr = in
			}
		}
	}
	if printInstr == nil {
		t.Fatal("no print instruction")
	}
	xv := fn.UseVal(printInstr.Args[0])
	yv := fn.UseVal(printInstr.Args[1])
	if xv == nil || xv.Op != OpPostCall {
		t.Errorf("X after call = %v, want PostCall", xv)
	}
	if yv == nil || yv.Op != OpConst || yv.AuxInt != 2 {
		t.Errorf("Y after call = %v, want const 2", yv)
	}

	// Without MOD info, both are killed.
	fn2 := buildSSANoMod(t, src, "P")
	var print2 *cfg.Instr
	for _, b := range fn2.Graph.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == cfg.InstrPrint {
				print2 = in
			}
		}
	}
	yv2 := fn2.UseVal(print2.Args[1])
	if yv2 == nil || yv2.Op != OpPostCall {
		t.Errorf("no-MOD: Y after call = %v, want PostCall", yv2)
	}
}

func TestGlobalsKilledByCall(t *testing.T) {
	fn, prog := buildSSA(t, `PROGRAM P
INTEGER G
COMMON /C/ G
G = 5
CALL TOUCH
PRINT *, G
END
SUBROUTINE TOUCH()
INTEGER H
COMMON /C/ H
H = 6
END
`, "P")
	g := prog.CommonBlocks["C"][0]
	var printInstr *cfg.Instr
	for _, b := range fn.Graph.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == cfg.InstrPrint {
				printInstr = in
			}
		}
	}
	gv := fn.UseVal(printInstr.Args[0])
	if gv == nil || gv.Op != OpPostCall {
		t.Errorf("G after call = %v, want PostCall", gv)
	}
	// The call info must have recorded G's pre-call value (const 5).
	if len(fn.Graph.Sites) != 1 {
		t.Fatalf("sites = %d", len(fn.Graph.Sites))
	}
	info := fn.Call(fn.Graph.Sites[0])
	pre := info.GlobalVal(g)
	if pre == nil || pre.Op != OpConst || pre.AuxInt != 5 {
		t.Errorf("pre-call global value = %v, want const 5", pre)
	}
}

func TestCallInfoArgVals(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER I, A(10)
I = 3
CALL S(I, I + 1, A, A(2))
END
SUBROUTINE S(W, X, Y, Z)
INTEGER W, X, Y(10), Z
W = Z + Y(1) + X
END
`, "P")
	var calls []*CallInfo
	for _, site := range fn.Graph.Sites {
		if info := fn.Call(site); info != nil {
			calls = append(calls, info)
		}
	}
	if len(calls) != 1 {
		t.Fatalf("calls = %d", len(calls))
	}
	for _, info := range calls {
		if len(info.ArgVals) != 4 {
			t.Fatalf("args = %d", len(info.ArgVals))
		}
		if info.ArgVals[0] == nil || info.ArgVals[0].Op != OpConst {
			t.Errorf("arg0 = %v, want const", info.ArgVals[0])
		}
		if info.ArgVals[1] == nil || info.ArgVals[1].Op != OpArith {
			t.Errorf("arg1 = %v, want arith", info.ArgVals[1])
		}
		if !info.ArgIsWholeArray[2] || info.ArgVals[2] != nil {
			t.Errorf("arg2 should be whole array")
		}
		if info.ArgVals[3] == nil || info.ArgVals[3].Op != OpArrayLoad {
			t.Errorf("arg3 = %v, want arrayload", info.ArgVals[3])
		}
	}
}

func TestFunctionResultValue(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER I
I = F(2)
PRINT *, I
END
INTEGER FUNCTION F(X)
INTEGER X
F = X * 2
END
`, "P")
	var hasCallRes bool
	for _, v := range fn.Values {
		if v.Op == OpCallRes {
			hasCallRes = true
		}
	}
	if !hasCallRes {
		t.Error("no OpCallRes value for function call")
	}
}

func TestResultSymbolInExitVals(t *testing.T) {
	fn, prog := buildSSA(t, `PROGRAM P
I = F(2)
END
INTEGER FUNCTION F(X)
INTEGER X
F = X + 40
END
`, "F")
	f := prog.Procs["F"]
	rv := fn.ExitVal(VarOf(f.Result))
	if rv == nil || rv.Op != OpArith {
		t.Errorf("result exit value = %v, want arith X+40", rv)
	}
}

func TestUndefUse(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER I, J
J = I + 1
END
`, "P")
	hasUndef := false
	for _, v := range fn.Values {
		if v.Op == OpUndef {
			hasUndef = true
		}
	}
	if !hasUndef {
		t.Error("use of uninitialized I should produce OpUndef")
	}
}

func TestReadProducesOpRead(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER N
READ *, N
PRINT *, N + 1
END
`, "P")
	found := false
	for _, v := range fn.Values {
		if v.Op == OpRead {
			found = true
		}
	}
	if !found {
		t.Error("READ target should define an OpRead value")
	}
}

func TestValueStrings(t *testing.T) {
	fn, _ := buildSSA(t, `PROGRAM P
INTEGER I, J
READ *, I
IF (I .GT. 0) THEN
  J = 1
ELSE
  J = 2
ENDIF
PRINT *, J
END
`, "P")
	for _, v := range fn.Values {
		if v.String() == "" {
			t.Errorf("empty String for %d", v.ID)
		}
	}
}

// TestSSAInvariantsOnRandomPrograms checks, over generated programs:
// every value has a unique ID; non-phi arguments' defining blocks
// dominate the user's block; phi argument counts match predecessor
// counts; every expression occurrence in a reachable block resolves to
// a value.
func TestSSAInvariantsOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		src := gen.Program(gen.Config{Seed: seed, NumProcs: 4, StmtsPerProc: 10})
		var diags source.ErrorList
		f := parser.ParseSource("gen.f", src, &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatalf("seed %d: %s", seed, diags.Error())
		}
		cg := callgraph.Build(prog)
		info := modref.Compute(cg)
		for _, n := range cg.Order {
			dt := dom.Compute(n.CFG)
			fn := Build(n.CFG, dt, Options{Kills: info.Kills, Globals: prog.Globals()})

			seen := make(map[int32]bool)
			for _, v := range fn.Values {
				if seen[v.ID] {
					t.Fatalf("seed %d %s: duplicate ID %d", seed, n.Proc.Name, v.ID)
				}
				seen[v.ID] = true
				if v.Op == OpPhi {
					if len(v.Args) != len(v.Block.Preds) {
						t.Fatalf("seed %d %s: phi arity %d != preds %d", seed, n.Proc.Name, len(v.Args), len(v.Block.Preds))
					}
					continue
				}
				for _, a := range v.Args {
					if a == nil {
						t.Fatalf("seed %d %s: nil arg on %v", seed, n.Proc.Name, v)
					}
					if dt.Reachable(v.Block) && dt.Reachable(a.Block) && !dt.Dominates(a.Block, v.Block) {
						t.Fatalf("seed %d %s: def of %v does not dominate use %v", seed, n.Proc.Name, a, v)
					}
				}
			}
			// Every expression occurrence (subexpressions included) of a
			// reachable block's instructions and branch condition has a
			// recorded value and block. Whole-array actuals have no scalar
			// value and are the one exception.
			requireUses := func(e ast.Expr) {
				ast.WalkExpr(e, func(x ast.Expr) bool {
					if fn.UseVal(x) == nil || fn.UseBlock(x) == nil {
						t.Fatalf("seed %d %s: no recorded use for %T %s", seed, n.Proc.Name, x, ast.ExprString(x))
					}
					return true
				})
			}
			for _, blk := range fn.Graph.Blocks {
				if !dt.Reachable(blk) {
					continue
				}
				for _, in := range blk.Instrs {
					switch in.Kind {
					case cfg.InstrAssign:
						requireUses(in.Rhs)
						for _, sub := range in.Subs {
							requireUses(sub)
						}
					case cfg.InstrRead:
						for _, tg := range in.Targets {
							for _, sub := range tg.Subs {
								requireUses(sub)
							}
						}
					case cfg.InstrPrint:
						for _, a := range in.Args {
							requireUses(a)
						}
					case cfg.InstrCall:
						info := fn.Call(in.Site)
						for i, a := range in.Site.Args {
							if !info.ArgIsWholeArray[i] {
								requireUses(a)
							}
						}
					}
				}
				if blk.Term.Kind == cfg.TermCond {
					requireUses(blk.Term.Cond)
				}
			}
		}
	}
}

// TestUnnumberedExpressionsAreNotRecorded: number 0 marks a node built
// outside the parser and the CFG builder. SSA construction evaluates it
// but records no use for it, so slot 0 of the use table stays empty
// while its numbered children keep their own entries.
func TestUnnumberedExpressionsAreNotRecorded(t *testing.T) {
	var diags source.ErrorList
	f := parser.ParseSource("t.f", "PROGRAM P\nINTEGER I\nI = 1\nPRINT *, I\nEND\n", &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	g := cfg.Build(prog, prog.Main)
	var pr *cfg.Instr
	for _, blk := range g.Blocks {
		for _, in := range blk.Instrs {
			if in.Kind == cfg.InstrPrint {
				pr = in
			}
		}
	}
	id := pr.Args[0]
	sum := &ast.Binary{Op: ast.OpAdd, X: id, Y: &ast.IntLit{Value: 1}}
	pr.Args = []ast.Expr{sum}
	fn := Build(g, dom.Compute(g), Options{Globals: prog.Globals()})
	if v := fn.UseVal(sum); v != nil {
		t.Errorf("UseVal(unnumbered) = %v, want nil", v)
	}
	if fn.uses[0] != (exprUse{}) {
		t.Errorf("slot 0 stored: %+v", fn.uses[0])
	}
	if v := fn.UseVal(id); v == nil || v.Op != OpConst || v.AuxInt != 1 {
		t.Errorf("UseVal(I) = %v, want const 1", v)
	}
}

// valueSig renders everything SSA construction decides about a value:
// its number, operator, type, aux fields, block and argument numbers.
func valueSig(v *Value) string {
	site := -1
	if v.AuxSite != nil {
		site = v.AuxSite.ID
	}
	aux := ""
	if v.AuxVar != (Var{}) {
		aux = v.AuxVar.String()
	}
	args := make([]string, len(v.Args))
	for i, a := range v.Args {
		args[i] = "nil"
		if a != nil {
			args[i] = fmt.Sprint(a.ID)
		}
	}
	return fmt.Sprintf("%d %s %s int=%d bool=%t op=%s name=%s var=%s site=%d b%d [%s]",
		v.ID, v.Op, v.Type, v.AuxInt, v.AuxBool, v.AuxOp, v.AuxName, aux, site, v.Block.ID, strings.Join(args, " "))
}

// TestBuildIsDeterministic builds every procedure of the suite and of
// generated 16- and 64-procedure programs twice, under MOD kills and
// under worst-case kills, and requires identical value sequences.
// Value numbers are observable: the engine derives opaque identities
// from them.
func TestBuildIsDeterministic(t *testing.T) {
	srcs := map[string]string{
		"gen16": gen.Program(gen.Config{Seed: 16, NumProcs: 16}),
		"gen64": gen.Program(gen.Config{Seed: 64, NumProcs: 64}),
	}
	for _, sp := range suite.Programs() {
		srcs[sp.Name] = suite.Source(sp)
	}
	for name, src := range srcs {
		var diags source.ErrorList
		f := parser.ParseSource(name+".f", src, &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatalf("%s: %s", name, diags.Error())
		}
		cg := callgraph.Build(prog)
		info := modref.Compute(cg)
		for _, kills := range []KillFunc{info.Kills, nil} {
			opts := Options{Kills: kills, Globals: prog.Globals()}
			for _, n := range cg.Order {
				first := Build(n.CFG, dom.Compute(n.CFG), opts)
				second := Build(n.CFG, dom.Compute(n.CFG), opts)
				if len(first.Values) != len(second.Values) {
					t.Fatalf("%s/%s: %d values, then %d", name, n.Proc.Name, len(first.Values), len(second.Values))
				}
				for i, v := range first.Values {
					if a, b := valueSig(v), valueSig(second.Values[i]); a != b {
						t.Fatalf("%s/%s: value %d differs between builds:\n%s\n%s", name, n.Proc.Name, i, a, b)
					}
				}
			}
		}
	}
}

// TestValueSize pins the SSA value layout: every procedure's form holds
// one per value, so the node size sets most of SSA's memory.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 88 {
		t.Errorf("Value is %d bytes, want at most 88", got)
	}
}
