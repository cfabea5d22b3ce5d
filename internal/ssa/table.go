package ssa

import (
	"sync"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/dom"
)

// Table holds the SSA form of every procedure of a call graph, each
// built on first use and shared from then on. A form depends only on
// its procedure's CFG and on the call-site kill assumptions, both fixed
// for the table's life, so one table serves a whole analysis attempt:
// jump-function construction in every complete-propagation round,
// dead-code counting and substitution all read the same forms. Readers
// must not modify a returned Func. Safe for concurrent use.
type Table struct {
	graph *callgraph.Graph
	opts  Options
	slots []tableSlot
	built atomic.Int64
}

type tableSlot struct {
	once sync.Once
	fn   *Func
}

// NewTable returns an empty table over cg's procedures. kills supplies
// the call-site kill sets; nil selects the worst-case assumptions (see
// Options.Kills).
func NewTable(cg *callgraph.Graph, kills KillFunc) *Table {
	return &Table{
		graph: cg,
		opts:  Options{Kills: kills, Globals: cg.Prog.Globals()},
		slots: make([]tableSlot, len(cg.Order)),
	}
}

// Func returns the SSA form of procedure cg.Order[i], building it on
// first use; concurrent first uses build it once.
func (t *Table) Func(i int) *Func {
	s := &t.slots[i]
	s.once.Do(func() {
		g := t.graph.Order[i].CFG
		s.fn = Build(g, dom.Compute(g), t.opts)
		t.built.Add(1)
	})
	return s.fn
}

// Built reports how many forms the table has built so far.
func (t *Table) Built() int { return int(t.built.Load()) }
