package sem

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/source"
)

const deriveBase = `PROGRAM MAIN
INTEGER K
COMMON /B/ X, Y
INTEGER X, Y
X = 1
CALL S(K)
END

SUBROUTINE S(N)
INTEGER N
COMMON /B/ X, Y
INTEGER X, Y
N = X + Y
END
`

// donorState snapshots everything a derivation must leave unchanged in
// its donor.
type donorState struct {
	order   []*Procedure
	procs   map[string]*Procedure
	units   []*ast.Unit
	blocks  map[string][]*GlobalVar
	globals []GlobalVar
}

func snapshot(pr *Program) donorState {
	st := donorState{
		order:  slices.Clone(pr.Order),
		procs:  maps.Clone(pr.Procs),
		units:  slices.Clone(pr.File.Units),
		blocks: make(map[string][]*GlobalVar),
	}
	for b, layout := range pr.CommonBlocks {
		st.blocks[b] = slices.Clone(layout)
	}
	for _, g := range pr.Globals() {
		st.globals = append(st.globals, *g)
	}
	return st
}

func (st donorState) check(t *testing.T, pr *Program, when string) {
	t.Helper()
	if !slices.Equal(st.order, pr.Order) || !maps.Equal(st.procs, pr.Procs) || !slices.Equal(st.units, pr.File.Units) {
		t.Fatalf("%s: donor's Order, Procs or File.Units changed", when)
	}
	if !maps.EqualFunc(st.blocks, pr.CommonBlocks, slices.Equal) {
		t.Fatalf("%s: donor's CommonBlocks changed", when)
	}
	for i, g := range pr.Globals() {
		w := st.globals[i]
		if g.Type != w.Type || g.IsArray != w.IsArray || g.Num() != w.Num() {
			t.Fatalf("%s: global %s changed: %+v, was %+v", when, g.Key(), *g, w)
		}
	}
}

// replaceAt returns pr's units with the one at idx replaced by u.
func replaceAt(pr *Program, idx int, u *ast.Unit) []*ast.Unit {
	units := slices.Clone(pr.File.Units)
	units[idx] = u
	return units
}

// TestDerive derives one accepted and three rejected replacements of
// S from one donor and checks the donor is untouched after each.
func TestDerive(t *testing.T) {
	donor := analyzeOK(t, deriveBase)
	st := snapshot(donor)
	derive := func(text string) (*Program, bool) {
		t.Helper()
		var diags source.ErrorList
		f := parser.ParseSource("t.f", text, &diags)
		if diags.HasErrors() || len(f.Units) != 1 {
			t.Fatalf("replacement does not parse alone:\n%s", text)
		}
		return donor.Derive(replaceAt(donor, 1, f.Units[0]), &diags)
	}

	next, ok := derive("SUBROUTINE S(N)\nINTEGER N\nCOMMON /B/ X, Y\nINTEGER X, Y\nN = X * Y\nY = 2\nEND\n")
	if !ok {
		t.Fatal("body edit rejected")
	}
	st.check(t, donor, "accepted")
	s := next.Order[1]
	if s == donor.Order[1] || next.Procs["S"] != s || next.Order[0] != donor.Order[0] {
		t.Fatal("derived program does not replace exactly S")
	}
	for _, c := range s.Commons {
		if g := donor.CommonBlocks["B"][c.Global.Index]; c.Global != g {
			t.Fatalf("S's %s is not bound to the donor's global", c.Name)
		}
	}
	if !slices.Equal(next.Globals(), donor.Globals()) || next.ProcIndex(s) != 1 || next.ProcIndex(donor.Order[1]) != -1 {
		t.Fatal("derived program's sealed tables are wrong")
	}

	for _, tc := range []struct{ name, text string }{
		{"formal list changed", "SUBROUTINE S(N, M)\nINTEGER N, M\nCOMMON /B/ X, Y\nINTEGER X, Y\nN = X + Y\nEND\n"},
		{"COMMON block extended", "SUBROUTINE S(N)\nINTEGER N\nCOMMON /B/ X, Y, Z\nINTEGER X, Y, Z\nN = X + Y\nEND\n"},
		{"COMMON member retyped", "SUBROUTINE S(N)\nINTEGER N\nCOMMON /B/ X, Y\nINTEGER X\nREAL Y\nN = X\nEND\n"},
	} {
		if _, ok := derive(tc.text); ok {
			t.Errorf("%s: derivation accepted", tc.name)
		}
		st.check(t, donor, tc.name)
	}
}

// TestDeriveKeepsLayoutExact rejects a replacement that drops a COMMON
// member no other unit declares: the layout stays the same length in
// the donor, but pass 2 over the edited text would shorten it.
func TestDeriveKeepsLayoutExact(t *testing.T) {
	donor := analyzeOK(t, "PROGRAM MAIN\nCOMMON /B/ X, Y, Z\nCALL S\nEND\n\nSUBROUTINE S\nCOMMON /B/ X, Y\nEND\n")
	var diags source.ErrorList
	f := parser.ParseSource("t.f", "PROGRAM MAIN\nCOMMON /B/ X, Y\nCALL S\nEND\n", &diags)
	if _, ok := donor.Derive(replaceAt(donor, 0, f.Units[0]), &diags); ok {
		t.Fatal("derivation kept a COMMON member no unit declares")
	}
}

// TestDeriveInsertRemove derives programs with a unit inserted or
// removed from one donor: accepted when pass 2 over the new units
// rebuilds the COMMON layout exactly, rejected otherwise, and the donor
// unchanged after each.
func TestDeriveInsertRemove(t *testing.T) {
	donor := analyzeOK(t, deriveBase+"\nSUBROUTINE T\nCOMMON /B/ X, Y\nINTEGER X, Y\nPRINT *, X\nEND\n")
	st := snapshot(donor)
	unit := func(text string) *ast.Unit {
		t.Helper()
		var diags source.ErrorList
		f := parser.ParseSource("t.f", text, &diags)
		if diags.HasErrors() || len(f.Units) != 1 {
			t.Fatalf("unit does not parse alone:\n%s", text)
		}
		return f.Units[0]
	}
	units := donor.File.Units
	derive := func(units []*ast.Unit) (*Program, bool) {
		var diags source.ErrorList
		return donor.Derive(units, &diags)
	}

	added := unit("SUBROUTINE U(M)\nINTEGER M\nCOMMON /B/ P\nINTEGER P\nM = P\nEND\n")
	next, ok := derive(slices.Insert(slices.Clone(units), 1, added))
	if !ok {
		t.Fatal("inserting a unit that keeps the layout was rejected")
	}
	st.check(t, donor, "insert")
	u := next.Procs["U"]
	if len(next.Order) != 4 || next.Order[1] != u || next.Order[2] != donor.Order[1] || next.ProcIndex(donor.Order[2]) != 3 {
		t.Fatal("derived program does not insert exactly U")
	}
	if g := donor.CommonBlocks["B"][0]; u.Commons[0].Global != g {
		t.Fatal("U's P is not bound to the donor's global")
	}
	if _, ok := derive(slices.Delete(slices.Clone(units), 2, 3)); !ok {
		t.Fatal("removing a unit that keeps the layout was rejected")
	}
	st.check(t, donor, "remove")

	for _, tc := range []struct {
		name  string
		units []*ast.Unit
	}{
		{"inserted unit extends a block", slices.Insert(slices.Clone(units), 3, unit("SUBROUTINE U\nCOMMON /B/ X, Y, Z\nEND\n"))},
		{"inserted unit retypes a member", slices.Insert(slices.Clone(units), 3, unit("SUBROUTINE U\nCOMMON /B/ X, Y\nREAL Y\nEND\n"))},
		{"inserted unit names a new block", slices.Insert(slices.Clone(units), 3, unit("SUBROUTINE U\nCOMMON /D/ Q\nEND\n"))},
		{"second PROGRAM unit", slices.Insert(slices.Clone(units), 3, unit("PROGRAM P2\nEND\n"))},
		{"duplicate name", slices.Insert(slices.Clone(units), 3, unit("SUBROUTINE S(N)\nINTEGER N\nEND\n"))},
		{"units reordered", []*ast.Unit{units[0], units[2], units[1]}},
		{"PROGRAM unit removed", slices.Delete(slices.Clone(units), 0, 1)},
	} {
		if _, ok := derive(tc.units); ok {
			t.Errorf("%s: derivation accepted", tc.name)
		}
		st.check(t, donor, tc.name)
	}

	// Removing the only unit that declares a block's last member would
	// shorten the layout.
	wide := analyzeOK(t, "PROGRAM MAIN\nCOMMON /B/ X\nEND\n\nSUBROUTINE T\nCOMMON /B/ X, Y\nEND\n")
	wst := snapshot(wide)
	var diags source.ErrorList
	if _, ok := wide.Derive(wide.File.Units[:1], &diags); ok {
		t.Error("removing the unit that extends a block was accepted")
	}
	wst.check(t, wide, "remove extending unit")
}
