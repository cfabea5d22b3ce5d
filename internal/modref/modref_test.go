package modref

import (
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

func compute(t *testing.T, src string) (*Info, *sem.Program) {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	cg := callgraph.Build(prog)
	return Compute(cg), prog
}

func TestDirectMod(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
INTEGER I, J
CALL S(I, J)
END
SUBROUTINE S(A, B)
INTEGER A, B
A = B + 1
END
`)
	s := prog.Procs["S"]
	if !info.Mod(s, 0) {
		t.Error("A (index 0) must be in MOD(S)")
	}
	if info.Mod(s, 1) {
		t.Error("B (index 1) must not be in MOD(S)")
	}
	if !info.Ref(s, 1) {
		t.Error("B must be in REF(S)")
	}
	if info.Ref(s, 0) {
		t.Error("A must not be in REF(S) (written only)")
	}
}

func TestTransitiveModThroughBinding(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
INTEGER I
CALL OUTER(I)
END
SUBROUTINE OUTER(X)
INTEGER X
CALL INNER(X)
END
SUBROUTINE INNER(Y)
INTEGER Y
Y = 1
END
`)
	outer := prog.Procs["OUTER"]
	if !info.Mod(outer, 0) {
		t.Error("X must be in MOD(OUTER) via INNER's modification of Y")
	}
}

func TestGlobalMod(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
COMMON /C/ N
CALL DEEP
END
SUBROUTINE DEEP()
CALL SETTER
END
SUBROUTINE SETTER()
COMMON /C/ M
M = 5
END
`)
	g := prog.CommonBlocks["C"][0]
	if !info.GMod(prog.Procs["SETTER"], g) {
		t.Error("GMOD(SETTER) must contain the global")
	}
	if !info.GMod(prog.Procs["DEEP"], g) {
		t.Error("GMOD(DEEP) must contain the global transitively")
	}
	if !info.GMod(prog.Procs["MAIN"], g) {
		t.Error("GMOD(MAIN) must contain the global transitively")
	}
}

func TestGlobalRef(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
COMMON /C/ N
N = 1
CALL USER
END
SUBROUTINE USER()
COMMON /C/ M
PRINT *, M
END
`)
	g := prog.CommonBlocks["C"][0]
	if !info.GRef(prog.Procs["USER"], g) {
		t.Error("GREF(USER) must contain the global")
	}
	if !info.GRef(prog.Procs["MAIN"], g) {
		t.Error("GREF(MAIN) must inherit the reference")
	}
	if info.GMod(prog.Procs["USER"], g) {
		t.Error("USER does not modify the global")
	}
}

func TestArrayElementActualModsArray(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
INTEGER A(10), B(10)
CALL S(A(3), B(1))
END
SUBROUTINE S(X, Y)
INTEGER X, Y
X = Y + 7
END
SUBROUTINE PASSER(C)
INTEGER C(10)
CALL S(C(2), C(3))
END
`)
	// PASSER passes elements of its array formal C: the MOD of S's X
	// must make C modified in PASSER.
	passer := prog.Procs["PASSER"]
	if !info.Mod(passer, 0) {
		t.Error("C must be in MOD(PASSER) via element binding")
	}
	if !info.Ref(passer, 0) {
		t.Error("C must be in REF(PASSER) via element binding")
	}
}

func TestArrayFormalElementMod(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
INTEGER A(10)
CALL FILL(A, 10)
END
SUBROUTINE FILL(B, N)
INTEGER N, B(N)
INTEGER I
DO I = 1, N
  B(I) = 0
ENDDO
END
`)
	fill := prog.Procs["FILL"]
	if !info.Mod(fill, 0) {
		t.Error("array formal B must be in MOD(FILL)")
	}
	// N is read (loop bound) and also written by the DO variable? No: I
	// is the loop variable. N must be REF but not MOD.
	if info.Mod(fill, 1) {
		t.Error("N must not be in MOD(FILL)")
	}
	if !info.Ref(fill, 1) {
		t.Error("N must be in REF(FILL)")
	}
}

func TestReadTargetIsMod(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
INTEGER I
CALL GETV(I)
END
SUBROUTINE GETV(X)
INTEGER X
READ *, X
END
`)
	if !info.Mod(prog.Procs["GETV"], 0) {
		t.Error("READ target formal must be in MOD")
	}
}

func TestRecursiveMod(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
INTEGER I
CALL R(I, 3)
END
SUBROUTINE R(X, N)
INTEGER X, N
IF (N .GT. 0) THEN
  CALL R(X, N - 1)
ELSE
  X = 0
ENDIF
END
`)
	r := prog.Procs["R"]
	if !info.Mod(r, 0) {
		t.Error("X must be in MOD(R) (recursion)")
	}
	if info.Mod(r, 1) {
		t.Error("N must not be in MOD(R)")
	}
}

func TestKillsAdapter(t *testing.T) {
	info, prog := compute(t, `PROGRAM MAIN
INTEGER I, J
COMMON /C/ G
CALL S(I, J)
END
SUBROUTINE S(A, B)
INTEGER A, B
COMMON /C/ H
A = 1
H = 2
END
`)
	main := info.Graph.Nodes["MAIN"]
	site := main.Out[0]
	formals, globals, all := info.Kills(site)
	if all {
		t.Fatal("Kills with MOD info should not be worst-case")
	}
	if !formals.Has(0) || formals.Has(1) {
		t.Errorf("killed formals = %b", formals)
	}
	g := prog.CommonBlocks["C"][0]
	if !globals.Has(g.Num()) {
		t.Error("global must be killed")
	}
}

func TestDoduclikeMutualRecursionTerminates(t *testing.T) {
	// Just make sure the fixpoint terminates on mutual recursion with
	// globals.
	info, _ := compute(t, `PROGRAM MAIN
CALL A
END
SUBROUTINE A()
COMMON /X/ P
P = P + 1
CALL B
END
SUBROUTINE B()
COMMON /X/ Q
IF (Q .GT. 0) CALL A
END
`)
	if info == nil {
		t.Fatal("nil info")
	}
	s := info.String()
	if !strings.Contains(s, "MOD(") {
		t.Errorf("String():\n%s", s)
	}
}
