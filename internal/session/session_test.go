package session

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/jump"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// twoChains has two independent call chains under MAIN, so an edit in
// one chain leaves reusable artifacts in the other:
// MAIN -> TOP -> LEAF and MAIN -> OTHER.
const twoChains = `PROGRAM MAIN
CALL TOP(8, 3)
CALL OTHER(5)
END

SUBROUTINE TOP(N, M)
INTEGER N, M
CALL LEAF(N, M)
END

SUBROUTINE LEAF(N, M)
INTEGER N, M
PRINT *, N + M
END

SUBROUTINE OTHER(K)
INTEGER K
PRINT *, K * 2
END
`

func testConfig(par int) core.Config {
	return core.Config{
		Jump:        jump.Config{Kind: jump.Polynomial, UseMOD: true, UseReturnJFs: true},
		Parallelism: par,
	}
}

// coldFingerprint analyzes src from scratch and flattens everything the
// public result surfaces: the VAL solution, the substitution count, and
// the fully substituted rendering. Front-end failures collapse to an
// error marker (sessions must fail on exactly the same inputs).
func coldFingerprint(t *testing.T, src string, cfg core.Config) string {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseFile(source.NewFile("prog.f", src), &diags)
	prog, err := sem.AnalyzeParallelCtx(nil, f, &diags, cfg.Parallelism)
	if err == nil {
		err = diags.Err()
	}
	if err != nil {
		return "ERR"
	}
	a, err := core.AnalyzeProgramErr(context.Background(), prog, cfg)
	if err != nil {
		t.Fatalf("cold analysis: %v", err)
	}
	sub := a.Substitute()
	return fmt.Sprintf("%s|%d|%s", a.Vals.String(), sub.Total, core.RenderSubstituted(f, sub))
}

func sessionFingerprint(t *testing.T, s *Session) string {
	t.Helper()
	a, f, sub, _, err := s.Snapshot()
	if err != nil {
		return "ERR"
	}
	return fmt.Sprintf("%s|%d|%s", a.Vals.String(), sub.Total, core.RenderSubstituted(f, sub))
}

func mustEqualCold(t *testing.T, s *Session, cfg core.Config, when string) {
	t.Helper()
	got := sessionFingerprint(t, s)
	want := coldFingerprint(t, s.Source(), cfg)
	if got != want {
		t.Fatalf("%s: session diverged from cold analysis\ngot  %q\nwant %q", when, got, want)
	}
}

// TestSessionFastPathEquivalence drives a session through fast-path
// replaces and checks byte-identity with a cold analysis of the
// concatenated text after every step, at parallelism 1 and 4, on the
// two-chain program, on the recursion program and on edits that add and
// remove side effects (testdata/effects.f).
func TestSessionFastPathEquivalence(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			cfg := testConfig(par)
			s, err := Open(context.Background(), "prog.f", twoChains, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumUnits() != 4 {
				t.Fatalf("NumUnits = %d, want 4", s.NumUnits())
			}
			mustEqualCold(t, s, cfg, "after open")

			// Same-line-count body edit of LEAF (unit 2).
			leaf := strings.Replace(s.units[2], "N + M", "N * M", 1)
			info, err := s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 2, Text: leaf}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath {
				t.Fatalf("LEAF edit took the slow path: %+v", info)
			}
			// Blast radius: LEAF plus transitive callers TOP and MAIN.
			if info.UnitsInvalidated != 3 {
				t.Fatalf("LEAF blast = %d, want 3", info.UnitsInvalidated)
			}
			if info.JumpReused != 1 {
				t.Fatalf("LEAF edit reused %d jump artifacts, want 1 (OTHER)", info.JumpReused)
			}
			mustEqualCold(t, s, cfg, "after LEAF edit")

			// Last-unit edit may change the line count.
			other := strings.Replace(s.units[3], "PRINT *, K * 2", "PRINT *, K * 2\nPRINT *, K + 7", 1)
			info, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 3, Text: other}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath {
				t.Fatalf("OTHER edit took the slow path: %+v", info)
			}
			if info.UnitsInvalidated != 2 {
				t.Fatalf("OTHER blast = %d, want 2 (OTHER, MAIN)", info.UnitsInvalidated)
			}
			if info.JumpReused != 2 {
				t.Fatalf("OTHER edit reused %d jump artifacts, want 2 (TOP, LEAF)", info.JumpReused)
			}
			mustEqualCold(t, s, cfg, "after OTHER edit")

			// No-op replace: nothing to invalidate, nothing re-analyzed.
			info, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 1, Text: s.units[1]}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath || info.UnitsInvalidated != 0 {
				t.Fatalf("no-op replace: %+v", info)
			}
			mustEqualCold(t, s, cfg, "after no-op edit")

			st := s.Stats()
			if st.FastEdits < 3 || st.FullRebuilds != 1 {
				t.Fatalf("stats = %+v, want >=3 fast edits and exactly 1 rebuild", st)
			}
			if st.ContextHits == 0 {
				t.Fatalf("no value-context replays across edits: %+v", st)
			}
		})
	}
	recursion, err := os.ReadFile(filepath.Join("..", "core", "testdata", "recursion.f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("recursion/par%d", par), func(t *testing.T) {
			cfg := testConfig(par)
			s, err := Open(context.Background(), "recursion.f", string(recursion), cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualCold(t, s, cfg, "after open")

			// STRIDE (unit 5) feeds the EVEN/ODD cycle through its return
			// jump function: the blast radius is STRIDE, EVEN, ODD, DRIVER
			// and MAIN, and only the self-recursive FACT is reused.
			stride := strings.Replace(s.units[5], "S = K - 1", "S = K - 2", 1)
			info, err := s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 5, Text: stride}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath || info.UnitsInvalidated != 5 || info.JumpReused != 1 {
				t.Fatalf("STRIDE edit: %+v, want fast path, 5 invalidated, 1 reused", info)
			}
			mustEqualCold(t, s, cfg, "after STRIDE edit")

			// FACT (unit 2) calls only itself: its blast radius is FACT,
			// DRIVER and MAIN.
			fact := strings.Replace(s.units[2], "F = N * G", "F = N * G + 1", 1)
			info, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 2, Text: fact}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath || info.UnitsInvalidated != 3 || info.JumpReused != 3 {
				t.Fatalf("FACT edit: %+v, want fast path, 3 invalidated, 3 reused", info)
			}
			mustEqualCold(t, s, cfg, "after FACT edit")
		})
	}
	effects, err := os.ReadFile(filepath.Join("testdata", "effects.f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("effects/par%d", par), func(t *testing.T) {
			cfg := testConfig(par)
			s, err := Open(context.Background(), "effects.f", string(effects), cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualCold(t, s, cfg, "after open")

			// Each edit puts a side effect in LEAF's CONTINUE slot and then
			// takes it out again; TOP and MAIN read what LEAF may modify
			// after the call, so a stale MOD/REF summary of LEAF or of its
			// callers changes their constants.
			leaf := s.units[2]
			for _, stmt := range []string{"N = 11", "G = 12", "PRINT *, G", "CALL OTHER(M)"} {
				for _, text := range []string{strings.Replace(leaf, "CONTINUE", stmt, 1), leaf} {
					info, err := s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 2, Text: text}})
					if err != nil {
						t.Fatal(err)
					}
					when := fmt.Sprintf("after %q edit", stmt)
					if text == leaf {
						when = fmt.Sprintf("after removing %q", stmt)
					}
					if !info.FastPath {
						t.Fatalf("%s: slow path: %+v", when, info)
					}
					mustEqualCold(t, s, cfg, when)
				}
			}
		})
	}
}

// TestSessionRebuildPaths exercises the deltas that must fall back to a
// full rebuild — add, delete, and an interface-changing replace — and
// checks cold equivalence after each.
func TestSessionRebuildPaths(t *testing.T) {
	cfg := testConfig(1)
	s, err := Open(context.Background(), "prog.f", twoChains, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Add a new unit and call it from MAIN in one batch.
	main := strings.Replace(s.units[0], "CALL OTHER(5)", "CALL OTHER(5)\nCALL EXTRA(9)", 1)
	extra := "\nSUBROUTINE EXTRA(J)\nINTEGER J\nPRINT *, J - 1\nEND\n"
	info, err := s.Apply(context.Background(), []Edit{
		{Op: OpAdd, Index: 4, Text: extra},
		{Op: OpReplace, Index: 0, Text: main},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.FastPath {
		t.Fatal("add took the fast path")
	}
	if s.NumUnits() != 5 {
		t.Fatalf("NumUnits = %d, want 5", s.NumUnits())
	}
	mustEqualCold(t, s, cfg, "after add")

	// Interface change (arity): sem.Program.Derive must reject it and the
	// rebuild must still converge.
	leaf2 := "SUBROUTINE LEAF(N, M, P)\nINTEGER N, M, P\nPRINT *, N + M\nEND\n\n"
	if _, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 2, Text: leaf2}}); err == nil {
		t.Fatal("arity-changing edit produced no error (MIDDLE's call is now wrong)")
	}
	if _, _, _, _, serr := s.Snapshot(); serr == nil {
		t.Fatal("Snapshot after broken edit returned no error")
	}
	mustEqualCold(t, s, cfg, "after broken edit")

	// Repair it; the session must converge again even from error state.
	leaf3 := "SUBROUTINE LEAF(N, M)\nINTEGER N, M\nPRINT *, N - M\nEND\n\n"
	if _, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 2, Text: leaf3}}); err != nil {
		t.Fatal(err)
	}
	mustEqualCold(t, s, cfg, "after repair")

	// Delete the EXTRA unit and drop its call site in the same batch.
	info, err = s.Apply(context.Background(), []Edit{
		{Op: OpReplace, Index: 0, Text: strings.Replace(s.units[0], "\nCALL EXTRA(9)", "", 1)},
		{Op: OpDelete, Index: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumUnits() != 4 {
		t.Fatalf("NumUnits = %d, want 4", s.NumUnits())
	}
	mustEqualCold(t, s, cfg, "after delete")

	// Invalid index leaves the session untouched.
	before := sessionFingerprint(t, s)
	if _, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 99, Text: "X"}}); err == nil {
		t.Fatal("out-of-range edit succeeded")
	}
	if got := sessionFingerprint(t, s); got != before {
		t.Fatal("failed edit mutated the session")
	}
}

// TestSessionSyntaxErrorState checks that a parse-breaking edit puts
// the session in the same error state a cold analysis of the final text
// would produce, and that a later edit repairs it.
func TestSessionSyntaxErrorState(t *testing.T) {
	cfg := testConfig(1)
	s, err := Open(context.Background(), "prog.f", twoChains, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := s.units[3]
	bad := "SUBROUTINE OTHER(K\nINTEGER K\nPRINT *, K * 2\nEND\n"
	if _, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 3, Text: bad}}); err == nil {
		t.Fatal("syntax-breaking edit produced no error")
	}
	if want := coldFingerprint(t, s.Source(), cfg); want != "ERR" {
		t.Fatalf("cold analysis of broken text did not fail: %q", want)
	}
	if _, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 3, Text: good}}); err != nil {
		t.Fatal(err)
	}
	mustEqualCold(t, s, cfg, "after repair")
}

// TestSessionCommonLayoutEdit drops the one COMMON member only the
// edited unit declared. The layout a cold analysis builds is one member
// shorter, so the edit must leave the fast path.
func TestSessionCommonLayoutEdit(t *testing.T) {
	cfg := testConfig(1)
	src := "PROGRAM MAIN\nCOMMON /B/ X, Y, Z\nINTEGER X, Y, Z\nX = 1\nY = 2\nZ = 3\nCALL S\nEND\n\n" +
		"SUBROUTINE S\nCOMMON /B/ X, Y\nINTEGER X, Y\nPRINT *, X + Y\nEND\n"
	s, err := Open(context.Background(), "prog.f", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	main := "PROGRAM MAIN\nCOMMON /B/ X, Y\nINTEGER X, Y\nX = 1\nY = 2\n\nCALL S\nEND\n\n"
	info, err := s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 0, Text: main}})
	if err != nil {
		t.Fatal(err)
	}
	if info.FastPath {
		t.Fatal("a layout-changing edit took the fast path")
	}
	mustEqualCold(t, s, cfg, "after dropping Z")
}

// TestSessionCompleteMode checks that complete propagation never uses
// the fast path's artifact reuse yet still matches cold analysis.
func TestSessionCompleteMode(t *testing.T) {
	cfg := testConfig(1)
	cfg.Complete = true
	s, err := Open(context.Background(), "prog.f", twoChains, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualCold(t, s, cfg, "after open")
	leaf := strings.Replace(s.units[2], "N + M", "N * M", 1)
	info, err := s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 2, Text: leaf}})
	if err != nil {
		t.Fatal(err)
	}
	if info.FastPath {
		t.Fatal("complete-mode edit took the fast path")
	}
	mustEqualCold(t, s, cfg, "after edit")
}

// replaceAt returns units with the one at idx replaced by u.
func replaceAt(units []*ast.Unit, idx int, u *ast.Unit) []*ast.Unit {
	units = slices.Clone(units)
	units[idx] = u
	return units
}

// TestReplaceUnitInterfaceGate checks sem.Program.Derive directly: body
// edits pass, interface edits are rejected, and the donor program is
// unchanged either way.
func TestReplaceUnitInterfaceGate(t *testing.T) {
	var diags source.ErrorList
	f := parser.ParseFile(source.NewFile("prog.f", twoChains), &diags)
	prog, err := sem.AnalyzeParallelCtx(nil, f, &diags, 1)
	if err != nil || diags.Err() != nil {
		t.Fatalf("seed program broken: %v %v", err, diags.Err())
	}
	// Body-only replacement of OTHER (index 3) succeeds.
	var d1 source.ErrorList
	pf := parser.ParseFile(source.NewFile("prog.f", "SUBROUTINE OTHER(K)\nINTEGER K\nPRINT *, K * 3\nEND\n"), &d1)
	if d1.Err() != nil || len(pf.Units) != 1 {
		t.Fatalf("bad replacement unit: %v", d1.Err())
	}
	oldTop, oldOther := prog.Procs["TOP"], prog.Procs["OTHER"]
	var rdiags source.ErrorList
	next, ok := prog.Derive(replaceAt(prog.File.Units, 3, pf.Units[0]), &rdiags)
	if !ok || next == nil || len(rdiags.Diags) > 0 {
		t.Fatalf("body replacement rejected: ok=%v diags=%v", ok, rdiags.Diags)
	}
	p := next.Procs["OTHER"]
	if p == oldOther || p.Unit != pf.Units[0] {
		t.Fatal("replaced procedure not rebuilt from the new unit")
	}
	if next.Procs["TOP"] != oldTop {
		t.Fatal("untouched procedure lost identity")
	}
	if next.Order[3] != p || next.File.Units[3] != pf.Units[0] {
		t.Fatal("program maps not updated")
	}
	if prog.Procs["OTHER"] != oldOther || prog.Order[3] != oldOther || prog.File.Units[3] != oldOther.Unit {
		t.Fatal("derivation mutated the donor program")
	}

	// Arity change is rejected, program untouched.
	var d2 source.ErrorList
	pf2 := parser.ParseFile(source.NewFile("prog.f", "SUBROUTINE OTHER(K, L)\nINTEGER K, L\nPRINT *, K\nEND\n"), &d2)
	if d2.Err() != nil || len(pf2.Units) != 1 {
		t.Fatalf("bad replacement unit: %v", d2.Err())
	}
	var rdiags2 source.ErrorList
	if _, ok := next.Derive(replaceAt(next.File.Units, 3, pf2.Units[0]), &rdiags2); ok {
		t.Fatal("arity-changing replacement accepted")
	}
	if next.Procs["OTHER"] != p {
		t.Fatal("rejected replacement mutated the program")
	}
}
