// Package callgraph builds the program call graph G used by the
// interprocedural phases: one node per procedure, one edge per call
// site. It also computes Tarjan SCCs so the bottom-up (return jump
// function) and top-down (forward jump function) passes can walk the
// condensation in topological order; procedures in non-trivial SCCs are
// (mutually) recursive and are summarized conservatively.
package callgraph

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cfg"
	"repro/internal/sem"
)

// Node is one procedure in the call graph.
type Node struct {
	Proc *sem.Procedure
	CFG  *cfg.Graph
	// Index is the node's position in Graph.Order.
	Index int
	// Out lists this procedure's call sites (in CFG order).
	Out []*cfg.CallSite
	// Callees holds the node each Out site calls, index for index; nil
	// where the callee is not a procedure of the program.
	Callees []*Node
	// In lists the sites that call this procedure.
	In []*cfg.CallSite
	// SCC is the Tarjan component index; components are numbered in
	// reverse topological order (callees before callers).
	SCC int
	// Recursive marks nodes in a non-trivial SCC or with a self loop.
	Recursive bool
}

// Graph is the program call graph.
type Graph struct {
	Prog  *sem.Program
	Nodes map[string]*Node
	// Order lists nodes in source order.
	Order []*Node
	// NumSCCs is the number of strongly connected components.
	NumSCCs int

	// bottomUp and topDown are the walk orders BottomUp and TopDown
	// return.
	bottomUp, topDown []*Node
}

// Build constructs CFGs for every procedure and the call graph over
// them.
func Build(prog *sem.Program) *Graph { return BuildReuse(prog, nil) }

// BuildReuse is Build with per-procedure CFG reuse: a procedure of
// prev's program keeps its already-built CFG (and therefore its
// *CallSite identities), wherever it now sits; every other procedure
// gets a fresh cfg.Build. The replace step of incremental analysis uses
// this to rebuild the call graph after an edit without re-walking every
// unchanged body. A nil prev reuses nothing.
//
// When every procedure sits at its prev index under the same name and
// calls the same callees in the same order, no edge moved: the graph is
// derived from prev, copying its components, recursion marks and walk
// orders, and its In lists but those of the replaced procedures'
// callees. Otherwise edges, components and orders are computed from
// scratch. Either way the result is indistinguishable from Build's.
func BuildReuse(prog *sem.Program, prev *Graph) *Graph {
	nodes := make([]Node, len(prog.Order))
	g := &Graph{Prog: prog, Nodes: make(map[string]*Node, len(nodes)), Order: make([]*Node, len(nodes))}
	nsites := 0
	aligned := prev != nil && len(prev.Order) == len(nodes)
	for i, p := range prog.Order {
		var c *cfg.Graph
		if j := prevIndex(prev, i, p); j >= 0 {
			c = prev.Order[j].CFG
		} else {
			c = cfg.Build(prog, p)
		}
		n := &nodes[i]
		n.Proc, n.CFG, n.Index, n.Out = p, c, i, c.Sites
		g.Nodes[p.Name] = n
		g.Order[i] = n
		nsites += len(c.Sites)
		aligned = aligned && sameSites(prev.Order[i], n)
	}
	callees := make([]*Node, nsites)
	for _, n := range g.Order {
		n.Callees, callees = callees[:len(n.Out):len(n.Out)], callees[len(n.Out):]
	}
	if aligned {
		g.derive(prev)
		return g
	}
	for _, n := range g.Order {
		for k, site := range n.Out {
			if callee := g.Nodes[site.Callee]; callee != nil {
				n.Callees[k] = callee
				callee.In = append(callee.In, site)
			}
		}
	}
	g.computeSCCs()
	// The walk orders are fixed once: bottom-up is ascending SCC number,
	// source order within a component, and top-down is its reverse.
	g.bottomUp = slices.Clone(g.Order)
	slices.SortStableFunc(g.bottomUp, func(a, b *Node) int { return a.SCC - b.SCC })
	g.topDown = slices.Clone(g.bottomUp)
	slices.Reverse(g.topDown)
	return g
}

// sameSites reports whether n, a node of a graph being built, names
// the procedure m named and calls the same callees in the same order.
func sameSites(m, n *Node) bool {
	if m.CFG == n.CFG {
		return true
	}
	if m.Proc.Name != n.Proc.Name || len(m.Out) != len(n.Out) {
		return false
	}
	for k, s := range m.Out {
		if s.Callee != n.Out[k].Callee {
			return false
		}
	}
	return true
}

// derive completes g from prev, whose nodes g's match index for index
// (sameSites). Callees, components, recursion marks and walk orders
// carry over by index. A kept procedure's call sites are prev's, so an
// In list is shared with prev unless a replaced procedure calls the
// node: then the list is copied and each old site of the replaced
// procedure swapped for its new one, which keeps Build's order (caller
// index, then site order).
func (g *Graph) derive(prev *Graph) {
	g.NumSCCs = prev.NumSCCs
	for i, n := range g.Order {
		m := prev.Order[i]
		for k, c := range m.Callees {
			if c != nil {
				n.Callees[k] = g.Order[c.Index]
			}
		}
		n.In, n.SCC, n.Recursive = m.In, m.SCC, m.Recursive
	}
	for i, n := range g.Order {
		m := prev.Order[i]
		if m.CFG == n.CFG {
			continue
		}
		for k, c := range n.Callees {
			if c == nil {
				continue
			}
			in := prev.Order[c.Index].In
			if &c.In[0] == &in[0] { // still shared with prev
				c.In = slices.Clone(in)
			}
			c.In[slices.Index(in, m.Out[k])] = n.Out[k]
		}
	}
	g.bottomUp = make([]*Node, 2*len(g.Order))
	g.bottomUp, g.topDown = g.bottomUp[:len(g.Order):len(g.Order)], g.bottomUp[len(g.Order):]
	for i, m := range prev.bottomUp {
		g.bottomUp[i] = g.Order[m.Index]
	}
	for i, m := range prev.topDown {
		g.topDown[i] = g.Order[m.Index]
	}
}

// prevIndex returns p's position in prev's Order, or -1, looking at
// position i first.
func prevIndex(prev *Graph, i int, p *sem.Procedure) int {
	switch {
	case prev == nil:
		return -1
	case i < len(prev.Order) && prev.Order[i].Proc == p:
		return i
	}
	return prev.Prog.ProcIndex(p)
}

// Callee resolves a site's target node.
func (g *Graph) Callee(site *cfg.CallSite) *Node { return g.Nodes[site.Callee] }

// computeSCCs runs Tarjan's algorithm. Component numbering follows the
// order components are completed, which for Tarjan is reverse
// topological: if p calls q (and they are in different components),
// SCC(q) < SCC(p). Its state lives in slices indexed by Node.Index:
// index holds 1 + the discovery number (0 while unvisited).
func (g *Graph) computeSCCs() {
	nn := len(g.Order)
	state := make([]int32, 2*nn)
	index, low := state[:nn], state[nn:]
	onStack := make([]bool, nn)
	stack := make([]*Node, 0, nn)
	next := int32(0)

	var strongConnect func(n *Node)
	strongConnect = func(n *Node) {
		v := n.Index
		next++
		index[v], low[v] = next, next
		stack = append(stack, n)
		onStack[v] = true

		for _, m := range n.Callees {
			if m == nil {
				continue
			}
			w := m.Index
			if index[w] == 0 {
				strongConnect(m)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}

		if low[v] == index[v] {
			top := len(stack) - 1
			for stack[top] != n {
				top--
			}
			comp := stack[top:]
			for _, m := range comp {
				onStack[m.Index] = false
				m.SCC = g.NumSCCs
				if len(comp) > 1 {
					m.Recursive = true
				}
			}
			stack = stack[:top]
			g.NumSCCs++
		}
	}

	for _, n := range g.Order {
		if index[n.Index] == 0 {
			strongConnect(n)
		}
	}

	// Self-recursion.
	for _, n := range g.Order {
		for _, site := range n.Out {
			if site.Callee == n.Proc.Name {
				n.Recursive = true
			}
		}
	}
}

// BottomUp returns nodes ordered callees-first (ascending SCC number,
// stable within a component). The slice is computed once and shared:
// callers must not modify it.
func (g *Graph) BottomUp() []*Node { return g.bottomUp }

// TopDown returns nodes ordered callers-first: BottomUp reversed. The
// slice is shared like BottomUp's.
func (g *Graph) TopDown() []*Node { return g.topDown }

// String renders the call graph edges for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Order {
		targets := make([]string, len(n.Out))
		for i, s := range n.Out {
			targets[i] = s.Callee
		}
		fmt.Fprintf(&b, "%s (scc %d) -> [%s]\n", n.Proc.Name, n.SCC, strings.Join(targets, " "))
	}
	return b.String()
}
