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
	// sums holds one summary per node, indexed by callgraph.Node.Index,
	// collected from the node's CFG. An Info derived from another shares
	// the summaries an edit cannot change (see ComputeReuse). A summary
	// is never written once its Info is built.
	sums []*summary
}

// summary is one procedure's side effects.
type summary struct {
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
		return in.sums[n.Index]
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

// SameMod reports whether the procedure called name has the same closed
// MOD and GMOD sets in in as in prev: the effects a caller's build
// reads. Both must number globals alike, which holds for a program and
// the one the replace step derived from it.
func (in *Info) SameMod(prev *Info, name string) bool {
	n, m := in.Graph.Nodes[name], prev.Graph.Nodes[name]
	if n == nil || m == nil {
		return false
	}
	a, b := &in.sums[n.Index].closed, &prev.sums[m.Index].closed
	return slices.Equal(a.mod, b.mod) && slices.Equal(a.gmod, b.gmod)
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

// ComputeReuse is Compute reusing prev's summaries, for a graph the
// replace step derived from prev's. A component of cg whose members
// kept the CFGs prev's summaries were collected from, and whose callees
// outside it share prev's summaries too, shares prev's summaries: their
// closed sets are the same fixpoint of the same inputs. That is every
// component outside the edit's blast radius. Every other procedure gets
// a fresh summary, sharing prev's direct sets and bindings when it kept
// its CFG, and every fresh component is closed again from the direct
// sets, so an effect an edit removed leaves every caller too. Nothing
// is reused unless cg's Prog.Globals() equals prev's element for
// element, since the global sets are indexed by position. The result
// equals Compute(cg).
func ComputeReuse(cg *callgraph.Graph, prev *Info) *Info { return newInfo(cg, prev) }

func newInfo(cg *callgraph.Graph, prev *Info) *Info {
	globals := cg.Prog.Globals()
	if prev != nil && !slices.Equal(prev.globals, globals) {
		prev = nil
	}
	in := &Info{Graph: cg, globals: globals, sums: make([]*summary, len(cg.Order))}
	order := cg.BottomUp()

	// Share what prev can give, callees' components first, and size the
	// slabs every fresh summary is carved from: one for the summaries,
	// one for their sets and one for their bindings (a procedure has at
	// most one binding per actual).
	gw := bitset.Words(len(globals))
	nfresh, nwords, nargs := 0, 0, 0
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		hi = componentEnd(order, lo)
		if in.share(prev, order[lo:hi]) {
			continue
		}
		for _, n := range order[lo:hi] {
			w := 2 * (bitset.Words(len(n.Proc.Formals)) + gw)
			nfresh, nwords = nfresh+1, nwords+w
			if prev.node(n) == nil {
				nwords += w
				for _, site := range n.Out {
					nargs += len(site.Args)
				}
			}
		}
	}
	if nfresh == 0 {
		return in
	}
	fresh := make([]summary, nfresh)
	words := make(bitset.Set, nwords)
	carve := func(n int) bitset.Set {
		s := words[:n:n]
		words = words[n:]
		return s
	}
	binds := make([]binding, 0, nargs)
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		hi = componentEnd(order, lo)
		comp := order[lo:hi]
		if in.sums[comp[0].Index] != nil {
			continue // shared
		}
		for _, n := range comp {
			s := &fresh[0]
			fresh = fresh[1:]
			in.sums[n.Index] = s
			fw := bitset.Words(len(n.Proc.Formals))
			s.closed = sets{carve(fw), carve(fw), carve(gw), carve(gw)}
			if m := prev.node(n); m != nil {
				old := prev.sums[m.Index]
				s.direct, s.binds = old.direct, old.binds
				continue
			}
			s.direct = sets{carve(fw), carve(fw), carve(gw), carve(gw)}
			at := len(binds)
			collectDirect(n, &s.direct)
			binds = appendBindings(binds, n)
			s.binds = binds[at:len(binds):len(binds)]
		}
		in.close(comp)
	}
	return in
}

// componentEnd returns the end of the component that starts at
// order[lo], for order in BottomUp's order.
func componentEnd(order []*callgraph.Node, lo int) int {
	hi := lo + 1
	for hi < len(order) && order[hi].SCC == order[lo].SCC {
		hi++
	}
	return hi
}

// share installs prev's summaries for comp, a component of in's graph
// whose callees' components are settled, and reports true, when every
// member kept the CFG its prev summary was collected from and every
// callee outside comp shares prev's summary as well: a site without a
// callee must have had none in prev either.
func (in *Info) share(prev *Info, comp []*callgraph.Node) bool {
	if prev == nil {
		return false
	}
	for _, n := range comp {
		m := prev.node(n)
		if m == nil {
			return false
		}
		for k, q := range n.Callees {
			switch {
			case (q == nil) != (m.Callees[k] == nil):
				return false
			case q != nil && q.SCC != n.SCC && in.sums[q.Index] == nil:
				return false
			}
		}
	}
	for _, n := range comp {
		in.sums[n.Index] = prev.sums[prev.node(n).Index]
	}
	return true
}

// node returns in's node of n's procedure if it has n's CFG, and so
// in's summary of it was collected from n's CFG; otherwise nil.
func (in *Info) node(n *callgraph.Node) *callgraph.Node {
	if in == nil {
		return nil
	}
	g := in.Graph
	if i := n.Index; i < len(g.Order) && g.Order[i].CFG == n.CFG {
		return g.Order[i]
	}
	if i := g.Prog.ProcIndex(n.Proc); i >= 0 && g.Order[i].CFG == n.CFG {
		return g.Order[i]
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

// close computes the closed sets of comp, a component whose callees'
// components are closed, from its direct sets: a non-recursive
// procedure takes one pass and a recursive component iterates to its
// fixpoint.
func (in *Info) close(comp []*callgraph.Node) {
	for _, n := range comp {
		s := in.sums[n.Index]
		s.closed.copyFrom(&s.direct)
	}
	if len(comp) == 1 && !comp[0].Recursive {
		in.closeNode(comp[0])
		return
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

// closeNode propagates callee effects to the caller across each call
// site in n, returning whether anything was added.
func (in *Info) closeNode(n *callgraph.Node) bool {
	s := in.sums[n.Index]
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
