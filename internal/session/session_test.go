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
	"repro/internal/memo"
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

// mustMatchAfterEdit is mustEqualCold plus mustHoldNoStalePointer: a
// fast edit must leave results and artifacts as a cold analysis would.
func mustMatchAfterEdit(t *testing.T, s *Session, cfg core.Config, when string) {
	t.Helper()
	mustEqualCold(t, s, cfg, when)
	mustHoldNoStalePointer(t, s, when)
}

// mustHoldNoStalePointer walks every artifact the session keeps past an
// analysis — the analysis's jump-function tables, its substitution
// result, the artifact store and the value-context store — and fails
// on any procedure that is not the current program's procedure of its
// name. A kept caller still pointing at a replaced callee would feed
// nothing to it: the solvers skip a callee that is not in the program.
func mustHoldNoStalePointer(t *testing.T, s *Session, when string) {
	t.Helper()
	prog := s.fe.Prog
	check := func(where string, p *sem.Procedure) {
		t.Helper()
		if p == nil || prog.Procs[p.Name] != p {
			name := "<nil>"
			if p != nil {
				name = p.Name
			}
			t.Fatalf("%s: %s holds a stale procedure %s", when, where, name)
		}
	}
	a, _, sub, _, err := s.Snapshot()
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for p, sum := range a.Funcs.Returns {
		check("Returns", p)
		check("ReturnSummary.Proc", sum.Proc)
	}
	for p, pf := range a.Funcs.Procs {
		check("Procs", p)
		for _, sf := range pf.Sites {
			check("SiteFunctions.Callee", sf.Callee)
		}
	}
	for _, p := range sub.Procs {
		check("subst result", p)
	}
	s.arts.Procs(check)
	s.ctxs.Procs(check)
}

// TestSessionFastPathEquivalence drives a session through derived edits
// and checks byte-identity with a cold analysis of the concatenated text
// after every step, at parallelism 1 and 4: replaces on the two-chain
// program, on the recursion program and edits that add and remove side
// effects (testdata/effects.f), then the structural deltas of
// structuralDeltas, which move, add and remove units.
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
			leaf := strings.Replace(s.units[2].Text, "N + M", "N * M", 1)
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
			// LEAF's return jump functions are unchanged, so its callers
			// keep theirs.
			if info.JumpReused != 3 {
				t.Fatalf("LEAF edit reused %d jump artifacts, want 3 (OTHER, TOP, MAIN)", info.JumpReused)
			}
			mustMatchAfterEdit(t, s, cfg, "after LEAF edit")

			// Last-unit edit may change the line count.
			other := strings.Replace(s.units[3].Text, "PRINT *, K * 2", "PRINT *, K * 2\nPRINT *, K + 7", 1)
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
			if info.JumpReused != 3 {
				t.Fatalf("OTHER edit reused %d jump artifacts, want 3 (TOP, LEAF, MAIN)", info.JumpReused)
			}
			mustMatchAfterEdit(t, s, cfg, "after OTHER edit")

			// No-op replace: nothing to invalidate, nothing re-analyzed.
			info, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 1, Text: s.units[1].Text}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath || info.UnitsInvalidated != 0 {
				t.Fatalf("no-op replace: %+v", info)
			}
			mustMatchAfterEdit(t, s, cfg, "after no-op edit")

			// None of the edits above changed a forward jump function, so
			// each kept the solution. Changing MAIN's call of OTHER, and
			// changing it back, solves again twice; the second solve finds
			// TOP and LEAF with the incoming rows the first recorded.
			main := s.units[0].Text
			for _, text := range []string{strings.Replace(main, "OTHER(5)", "OTHER(6)", 1), main} {
				info, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 0, Text: text}})
				if err != nil {
					t.Fatal(err)
				}
				if !info.FastPath || info.UnitsInvalidated != 1 || info.JumpReused != 3 {
					t.Fatalf("MAIN edit: %+v, want fast path, 1 invalidated, 3 reused", info)
				}
				mustMatchAfterEdit(t, s, cfg, "after MAIN edit")
			}

			st := s.Stats()
			if st.FastEdits < 5 || st.FullRebuilds != 1 {
				t.Fatalf("stats = %+v, want >=5 fast edits and exactly 1 rebuild", st)
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
			// and MAIN. STRIDE's summary changed, so EVEN is rebuilt; EVEN
			// is recursive and has no summary, so ODD, DRIVER and MAIN keep
			// theirs, and so does FACT, outside the radius.
			stride := strings.Replace(s.units[5].Text, "S = K - 1", "S = K - 2", 1)
			info, err := s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 5, Text: stride}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath || info.UnitsInvalidated != 5 || info.JumpReused != 4 {
				t.Fatalf("STRIDE edit: %+v, want fast path, 5 invalidated, 4 reused", info)
			}
			mustMatchAfterEdit(t, s, cfg, "after STRIDE edit")

			// FACT (unit 2) calls only itself: its blast radius is FACT,
			// DRIVER and MAIN. FACT is recursive and its MOD sets hold, so
			// only FACT is rebuilt.
			fact := strings.Replace(s.units[2].Text, "F = N * G", "F = N * G + 1", 1)
			info, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 2, Text: fact}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.FastPath || info.UnitsInvalidated != 3 || info.JumpReused != 5 {
				t.Fatalf("FACT edit: %+v, want fast path, 3 invalidated, 5 reused", info)
			}
			mustMatchAfterEdit(t, s, cfg, "after FACT edit")
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
			leaf := s.units[2].Text
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
					mustMatchAfterEdit(t, s, cfg, when)
				}
			}
		})
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("structural/par%d", par), func(t *testing.T) {
			cfg := testConfig(par)
			runStructural(t, cfg, func(s *Session, d delta, info EditInfo) {
				if info.JumpReused != d.reused {
					t.Fatalf("%s reused %d jump artifacts, want %d: %+v", d.name, info.JumpReused, d.reused, info)
				}
				mustMatchAfterEdit(t, s, cfg, "after "+d.name)
			})
		})
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("cutoff/par%d", par), func(t *testing.T) {
			cfg := testConfig(par)
			for _, c := range cutoffCases {
				src, edited := readCutoffCase(t, c.name)
				s, err := Open(context.Background(), "prog.f", src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				info, err := s.Apply(context.Background(), []Edit{cutoffEdit(t, src, edited)})
				if err != nil {
					t.Fatal(err)
				}
				if s.Source() != edited {
					t.Fatalf("%s: the edit did not produce the edited text", c.name)
				}
				if !info.FastPath || info.UnitsInvalidated != c.invalidated || info.JumpReused != c.reused {
					t.Fatalf("%s: %+v, want fast path, %d invalidated, %d reused", c.name, info, c.invalidated, c.reused)
				}
				mustMatchAfterEdit(t, s, cfg, "after the "+c.name+" edit")
			}
		})
	}
}

// cutoffCases are the edits of testdata/cutoff, each NAME.f edited to
// NAME.edited.f in one unit, with the blast radius and the number of
// procedures that keep their jump functions:
//   - body: LEAF's body changes but not what it returns: TOP and MAIN
//     keep theirs.
//   - summary: LEAF's return jump function changes, so MID is rebuilt;
//     MID's does not, so TOP and MAIN keep theirs.
//   - mod: LEAF gains N = N. Its jump functions and R[N] = N hold, but
//     its MOD set grows, so MAIN is rebuilt and CALL LEAF(5) becomes
//     CALL LEAF(K).
//   - forward: TOP swaps its actuals: only a forward jump function
//     changes, so the program is solved again and MAIN keeps its own.
//   - data: DATA G /3/ becomes /4/ in P. Every jump function holds, yet
//     G changes in MAIN and P, so the program is solved again.
//   - recursive: LEAF calls TOP, which calls LEAF: a new call edge
//     rebuilds the whole radius.
var cutoffCases = []struct {
	name                string
	invalidated, reused int
}{
	{"body", 3, 3},
	{"summary", 4, 2},
	{"mod", 2, 0},
	{"forward", 2, 3},
	{"data", 2, 1},
	{"recursive", 3, 1},
}

// readCutoffCase returns the texts of testdata/cutoff/NAME.f and
// NAME.edited.f.
func readCutoffCase(t *testing.T, name string) (src, edited string) {
	t.Helper()
	a, err := os.ReadFile(filepath.Join("testdata", "cutoff", name+".f"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join("testdata", "cutoff", name+".edited.f"))
	if err != nil {
		t.Fatal(err)
	}
	return string(a), string(b)
}

// cutoffEdit returns the one replace delta that turns src into edited.
func cutoffEdit(t *testing.T, src, edited string) Edit {
	t.Helper()
	from, _ := memo.Split("prog.f", src)
	to, _ := memo.Split("prog.f", edited)
	var e []Edit
	for i := range min(len(from), len(to)) {
		if from[i].Text != to[i].Text {
			e = append(e, Edit{Op: OpReplace, Index: i, Text: to[i].Text})
		}
	}
	if len(from) != len(to) || len(e) != 1 {
		t.Fatalf("the texts differ in %d units of %d and %d, want one", len(e), len(from), len(to))
	}
	return e[0]
}

// sixUnits has an uncalled unit, SPARE, between two call chains:
// MAIN -> TOP -> LEAF and MAIN -> OTHER -> SIDE.
const sixUnits = `PROGRAM MAIN
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

SUBROUTINE SPARE(J)
INTEGER J
PRINT *, J
END

SUBROUTINE OTHER(K)
INTEGER K
CALL SIDE(K + 1)
END

SUBROUTINE SIDE(Q)
INTEGER Q
PRINT *, Q * 2
END
`

// delta is one step of structuralDeltas: the edits it applies to the
// session as it stands, and how many procedures' jump functions it must
// reuse.
type delta struct {
	name   string
	edits  func(s *Session) []Edit
	reused int
}

// structuralDeltas are applied in order to a session on sixUnits. Every
// one must be derived. A unit after a line-changing edit moves, so it is
// new, and so are its callers.
var structuralDeltas = []delta{
	// LEAF and every unit after it move, so they are new; their return
	// jump functions do not change, so TOP and MAIN keep theirs.
	{"middle unit one line longer", func(s *Session) []Edit {
		return []Edit{{Op: OpReplace, Index: 2, Text: strings.Replace(s.units[2].Text, "END", "PRINT *, N\nEND", 1)}}
	}, 2},
	{"add at the end", func(s *Session) []Edit {
		return []Edit{{Op: OpAdd, Index: 6, Text: "\nSUBROUTINE EXTRA(J)\nINTEGER J\nPRINT *, J - 1\nEND\n"}}
	}, 6},
	// Every unit but MAIN moves; MAIN keeps its jump functions.
	{"add at index 1", func(s *Session) []Edit {
		return []Edit{{Op: OpAdd, Index: 1, Text: "SUBROUTINE FIRST(J)\nINTEGER J\nPRINT *, J\nEND\n\n"}}
	}, 1},
	// MAIN calls OTHER, which moves; FIRST, TOP, LEAF and MAIN stay.
	{"delete an uncalled middle unit", func(s *Session) []Edit {
		return []Edit{{Op: OpDelete, Index: 4}}
	}, 4},
	// TOP keeps its line count, so FIRST and the units between TOP and
	// EXTRA stay, and MAIN keeps its jump functions.
	{"two replaces far apart", func(s *Session) []Edit {
		return []Edit{
			{Op: OpReplace, Index: 2, Text: strings.Replace(s.units[2].Text, "LEAF(N, M)", "LEAF(M, N)", 1)},
			{Op: OpReplace, Index: 6, Text: strings.Replace(s.units[6].Text, "J - 1", "J - 2\nPRINT *, J", 1)},
		}
	}, 5},
	// MAIN trades its trailing blank line for the call, keeping its line
	// count, so every other unit stays.
	{"add a unit and its call", func(s *Session) []Edit {
		main := strings.TrimSuffix(s.units[0].Text, "\n")
		return []Edit{
			{Op: OpAdd, Index: 7, Text: "SUBROUTINE LAST(J)\nINTEGER J\nPRINT *, J + 1\nEND\n"},
			{Op: OpReplace, Index: 0, Text: strings.Replace(main, "CALL OTHER(5)", "CALL OTHER(5)\nCALL LAST(9)", 1)},
		}
	}, 6},
	{"remove a unit and its call", func(s *Session) []Edit {
		return []Edit{
			{Op: OpReplace, Index: 0, Text: strings.Replace(s.units[0].Text, "\nCALL LAST(9)", "", 1) + "\n"},
			{Op: OpDelete, Index: 7},
		}
	}, 6},
}

// runStructural opens a session on sixUnits, applies structuralDeltas,
// requires each to be derived, and calls check after each.
func runStructural(t *testing.T, cfg core.Config, check func(*Session, delta, EditInfo)) {
	t.Helper()
	s, err := Open(context.Background(), "prog.f", sixUnits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range structuralDeltas {
		info, err := s.Apply(context.Background(), d.edits(s))
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if !info.FastPath {
			t.Fatalf("%s was not derived: %+v", d.name, info)
		}
		check(s, d, info)
	}
	if st := s.Stats(); st.FullRebuilds != 1 {
		t.Fatalf("stats = %+v, want only the opening rebuild", st)
	}
}

// positions renders the position of every unit and statement of f.
func positions(f *ast.File) string {
	var b strings.Builder
	for _, u := range f.Units {
		fmt.Fprintf(&b, "%s %v:", u.Name, u.Pos())
		ast.WalkStmts(u.Body, func(st ast.Stmt) bool {
			fmt.Fprintf(&b, " %v", st.Pos())
			return true
		})
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSessionPositions applies structuralDeltas and requires, after
// each, every unit and statement of the session's AST to sit where a
// cold parse of the session's text puts it. Rendered results carry no
// positions, so only this test sees a unit kept at a line it left.
func TestSessionPositions(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			runStructural(t, testConfig(par), func(s *Session, d delta, _ EditInfo) {
				var diags source.ErrorList
				cold := parser.ParseFile(source.NewFile("prog.f", s.Source()), &diags)
				_, f, _, _, err := s.Snapshot()
				if err != nil || diags.HasErrors() {
					t.Fatalf("%s: %v %v", d.name, err, diags.Err())
				}
				if got, want := positions(f), positions(cold); got != want {
					t.Fatalf("after %s: positions differ from a cold parse\ngot\n%swant\n%s", d.name, got, want)
				}
			})
		})
	}
}

// TestSessionRebuildPaths exercises the deltas the replace step must
// refuse, each of which rebuilds the program from its text: an arity
// change, removing a unit that is still called, a syntax error, and a
// COMMON layout change. After each the session must match a cold
// analysis, in the error state a cold analysis reports where there is
// one, and an edit restoring the text must repair it. An out-of-range
// index is refused before anything changes.
func TestSessionRebuildPaths(t *testing.T) {
	layout := "PROGRAM MAIN\nCOMMON /B/ X, Y, Z\nINTEGER X, Y, Z\nX = 1\nY = 2\nZ = 3\nCALL S\nEND\n\n" +
		"SUBROUTINE S\nCOMMON /B/ X, Y\nINTEGER X, Y\nPRINT *, X + Y\nEND\n"
	for _, tc := range []struct {
		name, src string
		edit      Edit
		broken    bool // the edited program has a front-end error
	}{
		// TOP's call of LEAF now passes too few arguments.
		{"arity", twoChains, Edit{Op: OpReplace, Index: 2, Text: "SUBROUTINE LEAF(N, M, P)\nINTEGER N, M, P\nPRINT *, N + M\nEND\n\n"}, true},
		{"called-unit-removed", twoChains, Edit{Op: OpDelete, Index: 2}, true},
		{"syntax-error", twoChains, Edit{Op: OpReplace, Index: 3, Text: "SUBROUTINE OTHER(K\nINTEGER K\nPRINT *, K * 2\nEND\n"}, true},
		// MAIN drops the one COMMON member only it declared: a cold
		// analysis builds a layout one member shorter.
		{"common-layout", layout, Edit{Op: OpReplace, Index: 0, Text: "PROGRAM MAIN\nCOMMON /B/ X, Y\nINTEGER X, Y\nX = 1\nY = 2\n\nCALL S\nEND\n\n"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1)
			s, err := Open(context.Background(), "prog.f", tc.src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			info, err := s.Apply(context.Background(), []Edit{tc.edit})
			if info.FastPath || (err != nil) != tc.broken {
				t.Fatalf("edit: %+v, error %v; want a rebuild, broken=%t", info, err, tc.broken)
			}
			mustEqualCold(t, s, cfg, "after the edit")
			if want := coldFingerprint(t, s.Source(), cfg); (want == "ERR") != tc.broken {
				t.Fatalf("cold analysis of the edited text: %q", want)
			}
			orig, _ := memo.Split("prog.f", tc.src)
			repair := Edit{Op: OpReplace, Index: tc.edit.Index, Text: orig[tc.edit.Index].Text}
			if tc.edit.Op == OpDelete {
				repair.Op = OpAdd
			}
			if _, err := s.Apply(context.Background(), []Edit{repair}); err != nil || s.Source() != tc.src {
				t.Fatalf("repair: %v", err)
			}
			mustEqualCold(t, s, cfg, "after the repair")

			before := sessionFingerprint(t, s)
			if _, err = s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 99, Text: "X"}}); err == nil {
				t.Fatal("out-of-range edit succeeded")
			}
			if got := sessionFingerprint(t, s); got != before {
				t.Fatal("failed edit mutated the session")
			}
		})
	}
}

// mustNotReuse checks an edit reused no artifact at all.
func mustNotReuse(t *testing.T, info EditInfo) {
	t.Helper()
	if info.JumpReused != 0 || info.SubstReused != 0 || info.ContextsReused != 0 {
		t.Fatalf("edit reused artifacts: %+v", info)
	}
}

// TestSessionCompleteMode checks that complete propagation reuses no
// artifact across edits — its rounds rebuild jump functions under
// entry environments an edit outside a blast radius can change — yet
// derives the edited program and still matches a cold analysis.
func TestSessionCompleteMode(t *testing.T) {
	cfg := testConfig(1)
	cfg.Complete = true
	noReuseEdits(t, cfg)
}

// TestSessionDegradedMode is TestSessionCompleteMode for a session
// whose every analysis degrades under a one-step solver budget.
func TestSessionDegradedMode(t *testing.T) {
	cfg := testConfig(1)
	cfg.Budget.MaxSolverSteps = 1
	s := noReuseEdits(t, cfg)
	if !s.analysis.Degraded() {
		t.Fatal("the analysis did not degrade")
	}
}

// noReuseEdits opens a session on twoChains under cfg and applies two
// edits of LEAF, each derived, reusing nothing and matching a cold
// analysis.
func noReuseEdits(t *testing.T, cfg core.Config) *Session {
	t.Helper()
	s, err := Open(context.Background(), "prog.f", twoChains, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualCold(t, s, cfg, "after open")
	for _, op := range []string{"N * M", "N - M"} {
		leaf := strings.Replace(twoChains, "N + M", op, 1)
		chunks, _ := memo.Split("prog.f", leaf)
		info, err := s.Apply(context.Background(), []Edit{{Op: OpReplace, Index: 2, Text: chunks[2].Text}})
		if err != nil {
			t.Fatal(err)
		}
		if !info.FastPath {
			t.Fatalf("edit to %s was not derived: %+v", op, info)
		}
		mustNotReuse(t, info)
		mustEqualCold(t, s, cfg, "after edit to "+op)
	}
	return s
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
