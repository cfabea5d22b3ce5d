// Package modref computes flow-insensitive interprocedural side-effect
// summaries in the style of Cooper–Kennedy:
//
//	MOD(p)  — the formal parameters p may modify (directly or through
//	          calls it makes, via reference-parameter binding);
//	GMOD(p) — the COMMON globals p may modify;
//	REF(p)  — the formals p may reference;
//	GREF(p) — the globals p may reference.
//
// The paper found MOD information decisive: "in any program where
// constants were found, using MOD information exposed additional
// constants" (Table 3). Without it, every call site kills every
// reference actual and every global.
//
// Each procedure has one summary of bit sets: MOD and REF over formal
// positions, GMOD and GREF over global numbers (sem.GlobalVar.Num). The
// direct sets hold the effects of the body alone; the closed sets add
// every callee's effects across the call sites, by word-wise unions in
// bottom-up order.
package modref

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/bitset"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/sem"
)

// Info holds the computed summaries.
type Info struct {
	Graph *callgraph.Graph

	// globals is the Globals() order the global sets are numbered by.
	globals []*sem.GlobalVar
	// sums holds one summary per node, indexed by callgraph.Node.Index.
	sums []summary
}

// summary is one procedure's side effects.
type summary struct {
	// cfg is the graph the direct sets were collected from.
	cfg *cfg.Graph
	// direct holds the body's own effects; closed adds the callees'.
	direct, closed sets
	// binds lists the actuals that name one of the procedure's formals
	// or globals, site by site: the bindings a callee's effects on its
	// formals reach the procedure through.
	binds []binding
}

// sets is one MOD/REF/GMOD/GREF quadruple.
type sets struct {
	mod, ref, gmod, gref bitset.Set
}

// binding is one actual at one call site: argument arg of the node's
// site Out[site] names the procedure's formal target, or, when target
// is negative, the global numbered ^target.
type binding struct {
	site, arg, target int32
}

// summary returns p's summary, or nil if p is not a node of the graph.
func (in *Info) summary(p *sem.Procedure) *summary {
	if n := in.Graph.Nodes[p.Name]; n != nil && n.Proc == p {
		return &in.sums[n.Index]
	}
	return nil
}

// Mod reports whether procedure p may modify its formal at index i.
func (in *Info) Mod(p *sem.Procedure, i int) bool {
	s := in.summary(p)
	return s != nil && s.closed.mod.Has(i)
}

// GMod reports whether p may modify global g.
func (in *Info) GMod(p *sem.Procedure, g *sem.GlobalVar) bool {
	s := in.summary(p)
	return s != nil && s.closed.gmod.Has(g.Num())
}

// Ref reports whether p may reference its formal at index i.
func (in *Info) Ref(p *sem.Procedure, i int) bool {
	s := in.summary(p)
	return s != nil && s.closed.ref.Has(i)
}

// GRef reports whether p may reference global g.
func (in *Info) GRef(p *sem.Procedure, g *sem.GlobalVar) bool {
	s := in.summary(p)
	return s != nil && s.closed.gref.Has(g.Num())
}

// Kills adapts the summaries to the ssa.Options.Kills signature: at a
// call site, the killed formal positions are MOD(callee) and the killed
// globals, by number, are GMOD(callee). The sets are shared: callers
// must not modify them.
func (in *Info) Kills(site *cfg.CallSite) (formals, globals bitset.Set, all bool) {
	callee := in.Graph.Nodes[site.Callee]
	if callee == nil {
		return nil, nil, true // unknown callee: worst case
	}
	c := &in.sums[callee.Index].closed
	return c.mod, c.gmod, false
}

// Compute runs the analysis to fixpoint over the call graph.
func Compute(cg *callgraph.Graph) *Info { return newInfo(cg, nil) }

// ComputeReuse is Compute reusing prev's direct effects: a procedure
// whose node kept the CFG prev's summary was collected from copies the
// direct sets instead of walking the body again. Nothing is reused
// unless cg's Prog.Globals() equals prev's element for element, since
// the global sets are indexed by position. The closed sets are always
// rebuilt from the direct ones, so an effect an edit removed leaves the
// callers too. The result equals Compute(cg).
func ComputeReuse(cg *callgraph.Graph, prev *Info) *Info { return newInfo(cg, prev) }

func newInfo(cg *callgraph.Graph, prev *Info) *Info {
	globals := cg.Prog.Globals()
	if prev != nil && !slices.Equal(prev.globals, globals) {
		prev = nil
	}
	in := &Info{Graph: cg, globals: globals, sums: make([]summary, len(cg.Order))}

	// Every set is carved from one slab, and every binding list from
	// another (a procedure has at most one binding per actual).
	gw := bitset.Words(len(globals))
	nwords, nargs := 0, 0
	for _, n := range cg.Order {
		nwords += 4 * (bitset.Words(len(n.Proc.Formals)) + gw)
		for _, site := range n.Out {
			nargs += len(site.Args)
		}
	}
	words := make(bitset.Set, nwords)
	carve := func(n int) bitset.Set {
		s := words[:n:n]
		words = words[n:]
		return s
	}
	binds := make([]binding, 0, nargs)
	for i, n := range cg.Order {
		s := &in.sums[i]
		s.cfg = n.CFG
		fw := bitset.Words(len(n.Proc.Formals))
		s.direct = sets{carve(fw), carve(fw), carve(gw), carve(gw)}
		s.closed = sets{carve(fw), carve(fw), carve(gw), carve(gw)}
		lo := len(binds)
		if old := prev.reusable(n); old != nil {
			s.direct.copyFrom(&old.direct)
			binds = append(binds, old.binds...)
		} else {
			collectDirect(n, &s.direct)
			binds = appendBindings(binds, n)
		}
		s.binds = binds[lo:len(binds):len(binds)]
	}
	in.close()
	return in
}

// reusable returns in's summary of n's procedure if its direct sets
// were collected from n's CFG, or nil.
func (in *Info) reusable(n *callgraph.Node) *summary {
	if in == nil {
		return nil
	}
	i := n.Index
	if i >= len(in.sums) || in.sums[i].cfg != n.CFG {
		i = in.Graph.Prog.ProcIndex(n.Proc)
	}
	if i >= 0 && in.sums[i].cfg == n.CFG {
		return &in.sums[i]
	}
	return nil
}

func (s *sets) copyFrom(t *sets) {
	copy(s.mod, t.mod)
	copy(s.ref, t.ref)
	copy(s.gmod, t.gmod)
	copy(s.gref, t.gref)
}

// add inserts target into MOD/GMOD (or REF/GREF when ref is set) and
// reports whether it was new.
func (s *sets) add(target int32, ref bool) bool {
	f, g := s.mod, s.gmod
	if ref {
		f, g = s.ref, s.gref
	}
	if target < 0 {
		return g.Add(int(^target))
	}
	return f.Add(int(target))
}

// targetOf encodes a formal or COMMON symbol as a set member: its
// formal index, or the complement of its global number. ok is false for
// any other symbol.
func targetOf(s *sem.Symbol) (target int32, ok bool) {
	switch {
	case s == nil:
		return 0, false
	case s.Kind == sem.SymFormal:
		return int32(s.FormalIndex), true
	case s.Kind == sem.SymCommon:
		return int32(^s.Global.Num()), true
	}
	return 0, false
}

// collectDirect records immediate effects within one procedure body.
func collectDirect(n *callgraph.Node, d *sets) {
	p := n.Proc
	record := func(s *sem.Symbol, ref bool) {
		if t, ok := targetOf(s); ok {
			d.add(t, ref)
		}
	}
	useExpr := func(e ast.Expr) {
		ast.WalkExpr(e, func(x ast.Expr) bool {
			switch v := x.(type) {
			case *ast.Ident:
				record(p.Lookup(v.Name), true)
			case *ast.Apply:
				record(p.Lookup(v.Name), true) // array read (call args walked below)
			}
			return true
		})
	}

	for _, blk := range n.CFG.Blocks {
		for _, instr := range blk.Instrs {
			switch instr.Kind {
			case cfg.InstrAssign:
				record(instr.Lhs, false)
				record(instr.LhsArray, false)
				useExpr(instr.Rhs)
				for _, s := range instr.Subs {
					useExpr(s)
				}
			case cfg.InstrRead:
				for _, t := range instr.Targets {
					record(t.Sym, false)
					for _, s := range t.Subs {
						useExpr(s)
					}
				}
			case cfg.InstrPrint:
				for _, a := range instr.Args {
					useExpr(a)
				}
			case cfg.InstrCall:
				// Argument expressions are references; binding effects
				// are handled in closeNode. A whole-array or
				// array-element actual is a REF of the array here.
				for _, a := range instr.Site.Args {
					useExpr(a)
				}
			}
		}
		if blk.Term.Kind == cfg.TermCond {
			useExpr(blk.Term.Cond)
		}
	}
}

// appendBindings appends n's reference-parameter bindings: each actual
// that is a variable, or an element of an array, naming a formal or a
// global of n's procedure.
func appendBindings(binds []binding, n *callgraph.Node) []binding {
	p := n.Proc
	for k, site := range n.Out {
		for i, arg := range site.Args {
			var sym *sem.Symbol
			switch a := arg.(type) {
			case *ast.Ident:
				sym = p.Lookup(a.Name)
			case *ast.Apply:
				// Array element actual: effects hit the array.
				if s := p.Lookup(a.Name); s != nil && s.IsArray {
					sym = s
				}
			}
			if t, ok := targetOf(sym); ok {
				binds = append(binds, binding{site: int32(k), arg: int32(i), target: t})
			}
		}
	}
	return binds
}

// close computes every closed set from the direct sets, one SCC at a
// time in bottom-up order: a component's callees outside it are final
// by then, so a non-recursive procedure takes one pass and a recursive
// component iterates to its fixpoint.
func (in *Info) close() {
	order := in.Graph.BottomUp()
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && order[hi].SCC == order[lo].SCC {
			hi++
		}
		comp := order[lo:hi]
		lo = hi
		for _, n := range comp {
			s := &in.sums[n.Index]
			s.closed.copyFrom(&s.direct)
		}
		if len(comp) == 1 && !comp[0].Recursive {
			in.closeNode(comp[0])
			continue
		}
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if in.closeNode(n) {
					changed = true
				}
			}
		}
	}
}

// closeNode propagates callee effects to the caller across each call
// site in n, returning whether anything was added.
func (in *Info) closeNode(n *callgraph.Node) bool {
	s := &in.sums[n.Index]
	c := &s.closed
	changed := false
	// Reference-parameter binding.
	for _, b := range s.binds {
		q := n.Callees[b.site]
		if q == nil {
			continue
		}
		qc := &in.sums[q.Index].closed
		if qc.mod.Has(int(b.arg)) && c.add(b.target, false) {
			changed = true
		}
		if qc.ref.Has(int(b.arg)) && c.add(b.target, true) {
			changed = true
		}
	}
	// Global effects propagate unconditionally.
	for _, q := range n.Callees {
		if q == nil {
			continue
		}
		qc := &in.sums[q.Index].closed
		if c.gmod.Or(qc.gmod) {
			changed = true
		}
		if c.gref.Or(qc.gref) {
			changed = true
		}
	}
	return changed
}

// String summarizes MOD/GMOD per procedure for debugging.
func (in *Info) String() string {
	var b strings.Builder
	for _, n := range in.Graph.Order {
		p := n.Proc
		c := &in.sums[n.Index].closed
		var mods []string
		for i, f := range p.Formals {
			if c.mod.Has(i) {
				mods = append(mods, f.Name)
			}
		}
		sort.Strings(mods)
		var gmods []string
		for num, g := range in.globals {
			if c.gmod.Has(num) {
				gmods = append(gmods, g.Key())
			}
		}
		sort.Strings(gmods)
		fmt.Fprintf(&b, "MOD(%s) = {%s} GMOD = {%s}\n", p.Name, strings.Join(mods, " "), strings.Join(gmods, " "))
	}
	return b.String()
}
