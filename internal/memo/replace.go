package memo

import (
	"slices"

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

// Delta is what one replace step changed: the program it derived from
// and the one it produced.
type Delta struct {
	From, To Front
	// Blast lists the procedures of From whose artifacts the edit may
	// invalidate: each procedure not kept and its transitive callers. A
	// procedure's jump functions and substitution decisions are built
	// from its own body plus its transitive callees' return summaries
	// and MOD sets, so nothing outside Blast can see the edit. Blast is
	// an upper bound: an analysis rebuilds a kept caller only when a
	// callee it rebuilt changed what callers see (jump.Memo).
	Blast []*sem.Procedure
	// Rewired is set when a replaced procedure calls a different set of
	// procedures: components and levels of the call graph may move, so
	// every procedure of Blast is rebuilt.
	Rewired bool
}

// Replace is the replace step of incremental analysis, the one path by
// which both the cache and sessions reuse an analyzed program. units
// lists the edited program's units, as Plan aligns them with f's;
// Replace parses each new one alone at its line (source.NewFileAt),
// derives the program with them (sem.Program.Derive), and derives the
// call graph and MOD/REF summaries from f's (callgraph.BuildReuse,
// modref.ComputeReuse): every kept procedure keeps its CFG, and when no
// call edge moved, what lies outside the blast radius keeps its
// components, walk orders and summaries. The callers in d.Blast are
// found on f's graph: a kept procedure can call a new one only if it
// called the unit of that name before, and a path through a new unit's
// body starts at a unit already in the blast radius.
//
// ok is false when a new unit does not parse alone to exactly one unit
// (an empty text parses to none), produces any diagnostic, or is
// rejected by the derivation, or when a kept unit calls a procedure the
// edit removed; the caller then analyzes the edited text from scratch.
func Replace(f Front, units []Unit) (d Delta, ok bool) {
	old := f.Prog.File.Units
	list := make([]*ast.Unit, len(units))
	for i, u := range units {
		switch {
		case u.Keep >= len(old):
			return Delta{}, false
		case u.Keep >= 0:
			list[i] = old[u.Keep]
			continue
		case u.StartLine < 1:
			return Delta{}, false
		}
		var diags source.ErrorList
		uf := parser.ParseFile(source.NewFileAt(u.File, u.Text, u.StartLine), &diags)
		if len(diags.Diags) > 0 || len(uf.Units) != 1 {
			return Delta{}, false
		}
		list[i] = uf.Units[0]
	}
	var diags source.ErrorList
	prog, ok := f.Prog.Derive(list, &diags)
	if !ok || len(diags.Diags) > 0 {
		return Delta{}, false
	}

	g := callgraph.BuildReuse(prog, f.Graph)
	seen := make([]bool, len(f.Graph.Order))
	var queue []*callgraph.Node
	removed, rewired := false, false
	for _, n := range f.Graph.Order {
		if prog.ProcIndex(n.Proc) < 0 {
			seen[n.Index] = true
			queue = append(queue, n)
			if m := g.Nodes[n.Proc.Name]; m == nil {
				removed = true
			} else if !rewired {
				rewired = !sameCallees(n, m)
			}
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
	d = Delta{From: f, Blast: make([]*sem.Procedure, len(queue)), Rewired: rewired}
	for i, n := range queue {
		d.Blast[i] = n.Proc
	}
	if removed {
		for _, n := range g.Order {
			if slices.Contains(n.Callees, nil) {
				return Delta{}, false // a kept unit calls a removed procedure
			}
		}
	}
	d.To = Front{Prog: prog, Graph: g, Mod: modref.ComputeReuse(g, f.Mod)}
	return d, true
}

// sameCallees reports whether two nodes call the same set of
// procedures, by name.
func sameCallees(a, b *callgraph.Node) bool {
	names := func(n *callgraph.Node) []string {
		out := make([]string, 0, len(n.Callees))
		for _, c := range n.Callees {
			if c != nil {
				out = append(out, c.Proc.Name)
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	return slices.Equal(names(a), names(b))
}
