package memo

import (
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// Front is one checked program (its AST is Prog.File) with its call
// graph and MOD/REF summaries: what the replace step derives from and
// what it produces. A Front is immutable once built, so any number of
// analyses and derivations may share one.
type Front struct {
	Prog  *sem.Program
	Graph *callgraph.Graph
	Mod   *modref.Info
}

// Unit is one unit of an edited program: the old program's unit at
// index Keep, or, when Keep is negative, a new unit: the text of Chunk
// at its start line.
type Unit struct {
	Keep int
	Chunk
}

// Replace is the replace step of incremental analysis, the one path by
// which both the cache and sessions reuse an analyzed program. units
// lists the edited program's units, as Plan aligns them with f's;
// Replace parses each new one alone
// at its absolute line, so its AST holds exactly the positions a parse
// of the whole text would give, derives the program with them
// (sem.Program.Derive), and rebuilds the call graph and MOD/REF
// summaries reusing every kept procedure's CFG and direct effects.
//
// blast lists the procedures of f whose artifacts the edit invalidates:
// each procedure not kept and its transitive callers. A procedure's jump
// functions and substitution decisions are built from its own body plus
// its transitive callees' return summaries and MOD sets, so nothing
// outside blast can see the edit. The callers are found on f's graph: a
// kept procedure can call a new one only if it called the unit of that
// name before, and a path through a new unit's body starts at a unit
// already in blast.
//
// ok is false when a new unit does not parse alone to exactly one unit
// (an empty text parses to none), produces any diagnostic, or is rejected by the derivation, or when a
// kept unit calls a procedure the edit removed; the caller then
// analyzes the edited text from scratch.
func Replace(f Front, units []Unit) (next Front, blast []*sem.Procedure, ok bool) {
	old := f.Prog.File.Units
	list := make([]*ast.Unit, len(units))
	for i, u := range units {
		switch {
		case u.Keep >= len(old):
			return Front{}, nil, false
		case u.Keep >= 0:
			list[i] = old[u.Keep]
			continue
		case u.StartLine < 1:
			return Front{}, nil, false
		}
		var diags source.ErrorList
		uf := parser.ParseSource(u.File, strings.Repeat("\n", u.StartLine-1)+u.Text, &diags)
		if len(diags.Diags) > 0 || len(uf.Units) != 1 {
			return Front{}, nil, false
		}
		list[i] = uf.Units[0]
	}
	var diags source.ErrorList
	prog, ok := f.Prog.Derive(list, &diags)
	if !ok || len(diags.Diags) > 0 {
		return Front{}, nil, false
	}

	seen := make([]bool, len(f.Graph.Order))
	var queue []*callgraph.Node
	removed := false
	for _, n := range f.Graph.Order {
		if prog.ProcIndex(n.Proc) < 0 {
			seen[n.Index] = true
			queue = append(queue, n)
			removed = removed || prog.Procs[n.Proc.Name] == nil
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, site := range queue[i].In {
			if c := f.Graph.Nodes[site.Caller.Name]; !seen[c.Index] {
				seen[c.Index] = true
				queue = append(queue, c)
			}
		}
	}
	blast = make([]*sem.Procedure, len(queue))
	for i, n := range queue {
		blast[i] = n.Proc
	}
	g := callgraph.BuildReuse(prog, f.Graph)
	if removed {
		for _, n := range g.Order {
			if slices.Contains(n.Callees, nil) {
				return Front{}, nil, false // a kept unit calls a removed procedure
			}
		}
	}
	return Front{Prog: prog, Graph: g, Mod: modref.ComputeReuse(g, f.Mod)}, blast, true
}
