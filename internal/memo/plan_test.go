package memo

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// planProgram has eight subroutines of three lines each under MAIN.
func planProgram() string {
	var b strings.Builder
	b.WriteString("PROGRAM MAIN\nCALL S1(1)\nEND\n")
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(&b, "SUBROUTINE S%d(N)\nINTEGER N\nPRINT *, N + %d\nEND\n", i, i)
	}
	return b.String()
}

// editSplit returns the split of src with old replaced by new.
func editSplit(src, old, new string) []Chunk {
	chunks, _ := Split("p.f", strings.Replace(src, old, new, 1))
	return chunks
}

// TestPlan checks the alignment: two line-keeping edits far apart keep
// every other unit, and a line-changing edit makes every later unit
// new.
func TestPlan(t *testing.T) {
	src := planProgram()
	donor, _ := Split("p.f", src)
	if len(donor) != 9 {
		t.Fatalf("%d units, want 9", len(donor))
	}
	keeps := func(units []Unit) string {
		var out []string
		for _, u := range units {
			out = append(out, fmt.Sprint(u.Keep))
		}
		return strings.Join(out, " ")
	}

	edited := editSplit(strings.Replace(src, "N + 2", "N * 2", 1), "N + 7", "N * 7")
	units, kept := Plan(donor, edited)
	if got, want := keeps(units), "0 1 -1 3 4 5 6 -1 8"; got != want || kept != 7 {
		t.Fatalf("two line-keeping edits: keeps %q (kept %d), want %q", got, kept, want)
	}
	if units[2].Chunk != edited[2] || units[7].Chunk != edited[7] {
		t.Fatal("a new unit does not carry its chunk")
	}

	units, kept = Plan(donor, editSplit(src, "N + 3\n", "N + 3\nPRINT *, N\n"))
	if got, want := keeps(units), "0 1 2 -1 -1 -1 -1 -1 -1"; got != want || kept != 3 {
		t.Fatalf("a line-changing edit: keeps %q (kept %d), want %q", got, kept, want)
	}
}

// TestReplaceEmptyUnit: a new unit with empty text parses to no unit,
// so Replace must reject it rather than keep an old unit.
func TestReplaceEmptyUnit(t *testing.T) {
	src := "PROGRAM MAIN\nINTEGER K\nK = 3\nPRINT *, K\nEND\n"
	var diags source.ErrorList
	prog := sem.Analyze(parser.ParseSource("p.f", src, &diags), &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	g := callgraph.Build(prog)
	fe := Front{Prog: prog, Graph: g, Mod: modref.Compute(g)}
	if _, _, ok := Replace(fe, []Unit{{Keep: -1, Chunk: Chunk{File: "p.f", StartLine: 1}}}); ok {
		t.Fatal("Replace accepted an empty new unit")
	}
	if _, _, ok := Replace(fe, []Unit{{Keep: 0}}); !ok {
		t.Fatal("Replace rejected keeping the only unit")
	}
}
