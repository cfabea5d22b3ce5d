package ipcp

import (
	"strings"
	"testing"
)

const demo = `PROGRAM MAIN
INTEGER N
COMMON /CFG/ NX
NX = 64
CALL SETUP(N)
CALL WORK(N)
END

SUBROUTINE SETUP(K)
INTEGER K
K = 100
END

SUBROUTINE WORK(M)
INTEGER M, NX, I, S
COMMON /CFG/ NX
S = 0
DO I = 1, M
  S = S + NX
ENDDO
PRINT *, S
END
`

func TestAnalyzeBasics(t *testing.T) {
	res, err := Analyze("demo.f", demo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	procs := res.Procedures()
	if len(procs) != 3 || procs[0] != "MAIN" {
		t.Fatalf("procedures = %v", procs)
	}
	ks := res.ConstantsOf("WORK")
	if len(ks) != 2 {
		t.Fatalf("CONSTANTS(WORK) = %v", ks)
	}
	byName := map[string]Constant{}
	for _, k := range ks {
		byName[k.Name] = k
	}
	if byName["M"].Value != 100 || byName["M"].IsGlobal {
		t.Errorf("M = %+v", byName["M"])
	}
	if byName["NX"].Value != 64 || !byName["NX"].IsGlobal || byName["NX"].Block != "CFG" {
		t.Errorf("NX = %+v", byName["NX"])
	}
	if res.ConstantsOf("NOPE") != nil {
		t.Error("unknown procedure should return nil")
	}
	// Case-insensitive lookup.
	if len(res.ConstantsOf("work")) != 2 {
		t.Error("lookup should be case-insensitive")
	}
}

func TestConstantsMap(t *testing.T) {
	res, err := Analyze("demo.f", demo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Constants()
	if _, ok := m["WORK"]; !ok {
		t.Errorf("Constants() = %v", m)
	}
}

func TestKindsDiffer(t *testing.T) {
	lit := Config{Kind: Literal, UseMOD: true, UseReturnJFs: true}
	resLit, err := Analyze("demo.f", demo, lit)
	if err != nil {
		t.Fatal(err)
	}
	resDef, err := Analyze("demo.f", demo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if resLit.SubstitutionCount() >= resDef.SubstitutionCount() {
		t.Errorf("literal (%d) should find fewer than pass-through (%d)",
			resLit.SubstitutionCount(), resDef.SubstitutionCount())
	}
}

func TestTransformedSource(t *testing.T) {
	res, err := Analyze("demo.f", demo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := res.TransformedSource()
	if !strings.Contains(out, "DO I = 1, 100") {
		t.Errorf("expected loop bound substitution in:\n%s", out)
	}
	if !strings.Contains(out, "S + 64") {
		t.Errorf("expected COMMON constant substitution in:\n%s", out)
	}
}

func TestRun(t *testing.T) {
	out, err := Run("demo.f", demo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "6400" {
		t.Errorf("output = %q, want 6400", out)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	_, err := Analyze("bad.f", "PROGRAM P\nCALL NOPE(1)\nEND\n", DefaultConfig())
	if err == nil {
		t.Fatal("expected error for undefined procedure")
	}
	if !strings.Contains(err.Error(), "undefined procedure") {
		t.Errorf("err = %v", err)
	}
}

func TestWarningsSurface(t *testing.T) {
	src := `PROGRAM P
I = F(1)
END
INTEGER FUNCTION F(A)
A = A + 1
END
`
	res, err := Analyze("w.f", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "never assigns its result") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v", res.Warnings)
	}
}

func TestStats(t *testing.T) {
	res, err := Analyze("demo.f", demo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jf, low, rounds := res.Stats()
	if jf == 0 || low == 0 || rounds != 1 {
		t.Errorf("stats = %d %d %d", jf, low, rounds)
	}
}

func TestSolverChoice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Solver = BindingGraph
	res, err := Analyze("demo.f", demo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := Analyze("demo.f", demo, DefaultConfig())
	if res.SubstitutionCount() != def.SubstitutionCount() {
		t.Error("solvers disagree")
	}
}

func TestCompleteConfig(t *testing.T) {
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
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Complete: true}
	res, err := Analyze("c.f", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks := res.ConstantsOf("T")
	if len(ks) != 1 || ks[0].Value != 5 {
		t.Errorf("complete propagation: CONSTANTS(T) = %v", ks)
	}
	// Each round re-runs jump and solve, and the trace counts every run.
	_, _, rounds := res.Stats()
	if rounds != 3 {
		t.Errorf("rounds = %d, want 3", rounds)
	}
	m := statsByPhase(res)
	for _, ph := range []string{"jump", "solve"} {
		if got := m[ph].Runs; got != int64(rounds) {
			t.Errorf("%s runs = %d, want one per round (%d)", ph, got, rounds)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Literal, Intraprocedural, PassThrough, Polynomial} {
		if k.String() == "" {
			t.Error("empty Kind string")
		}
	}
	if PassThrough.String() != "pass-through" {
		t.Errorf("PassThrough = %q", PassThrough.String())
	}
}

func TestSubstitutionCountsPerProc(t *testing.T) {
	res, err := Analyze("demo.f", demo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	per := res.SubstitutionCounts()
	if per["WORK"] == 0 {
		t.Errorf("per-proc counts = %v", per)
	}
}

func TestConstantString(t *testing.T) {
	c := Constant{Procedure: "WORK", Name: "NX", Value: 64}
	if c.String() != "WORK: (NX, 64)" {
		t.Errorf("String = %q", c.String())
	}
}

func TestAnalyzeFiles(t *testing.T) {
	files := []SourceFile{
		{"main.f", `PROGRAM MAIN
INTEGER G
COMMON /CFG/ G
G = 7
CALL WORK
END
`},
		{"work.f", `SUBROUTINE WORK()
INTEGER H
COMMON /CFG/ H
PRINT *, H
END
`},
	}
	res, err := AnalyzeFiles(files, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ks := res.ConstantsOf("WORK")
	if len(ks) != 1 || ks[0].Value != 7 {
		t.Fatalf("cross-file COMMON constant lost: %v", ks)
	}
	// Diagnostics carry per-file positions.
	files = append(files, SourceFile{"bad.f", "SUBROUTINE X()\nCALL NOPE\nEND\n"})
	_, err = AnalyzeFiles(files, DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "bad.f:") {
		t.Errorf("expected bad.f-positioned error, got %v", err)
	}
}

func TestJumpFunctionsDump(t *testing.T) {
	res, err := Analyze("demo.f", demo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lines := res.JumpFunctions()
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "site MAIN→SETUP@0") {
		t.Errorf("missing forward site:\n%s", joined)
	}
	if !strings.Contains(joined, "returns SETUP: R[K]=100") {
		t.Errorf("missing return JF:\n%s", joined)
	}
	if !strings.Contains(joined, "R[CFG#0]") {
		t.Errorf("missing global return JF:\n%s", joined)
	}
}

func TestJumpFunctionsDumpFunctionResult(t *testing.T) {
	src := `PROGRAM MAIN
INTEGER I
I = SIZE()
PRINT *, I
END
INTEGER FUNCTION SIZE()
SIZE = 64
END
`
	res, err := Analyze("f.f", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.JumpFunctions(), "\n")
	if !strings.Contains(joined, "R[result]=64") {
		t.Errorf("missing result summary:\n%s", joined)
	}
}
