package sem

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/source"
)

// This file is the front end's delta-edit entry point, Program.Derive.
// Kept units keep their *Procedure and COMMON members their *GlobalVar,
// so artifacts keyed by those pointers (CFGs, jump functions,
// substitution decisions, value contexts) stay valid. A rejected
// derivation sends the caller to a full analysis: it can cost time,
// never correctness.

// layoutEffect is one thing a unit's declarations do to the COMMON
// layout in pass 2: declare the member at index of block under name
// (name set; a declaration past the layout's end extends it), or write
// the member's type and array flag (name empty; TypeNone leaves the
// type, a false array leaves the flag).
type layoutEffect struct {
	block string
	index int
	name  string
	typ   ast.BaseType
	array bool
}

// Derive returns the program whose units are units, in order, and
// true; on rejection nil and false. Either way pr is unchanged. A unit
// of pr in units keeps its procedure. A new unit named like a unit of
// pr that units leaves out replaces it; any other new unit is inserted,
// and any other unit of pr removed. The new program shares every kept
// procedure, the COMMON layout and the sealed Globals() with pr.
//
// Kept and replaced units must keep pr's order. A replacement must keep
// the unit's interface (kind, result type, formal names, types and
// array-ness), since callers are not checked again, and its effects on
// the COMMON layout, compared by running pass 2 for both units against
// private copies of the blocks they name. Pass 2 over units must
// rebuild pr's layout of every block an inserted or removed unit names.
// The new procedures' COMMON symbols are then bound to pr's globals. An
// inserted unit cannot change how a kept unit checks, since a kept
// unit's reference to its name would have been an error in pr; a kept
// unit's call to a removed procedure is left to the caller, whose call
// graph shows it without a callee (see memo.Replace). diags receives
// the new units' semantic diagnostics; any error rejects the
// derivation.
func (pr *Program) Derive(units []*ast.Unit, diags *source.ErrorList) (*Program, bool) {
	if len(pr.Order) != len(pr.File.Units) || pr.globalsCache == nil || pr.procIdx == nil {
		return nil, false
	}
	np := &Program{
		File:         &ast.File{Source: pr.File.Source, Units: units},
		Procs:        make(map[string]*Procedure, len(units)),
		Order:        make([]*Procedure, 0, len(units)),
		CommonBlocks: pr.CommonBlocks,
		globalsCache: pr.globalsCache,
		procIdx:      make(map[*Procedure]int, len(units)),
	}
	var local source.ErrorList
	var fresh []*Procedure
	var moved []*ast.Unit // inserted and removed units
	next := 0             // pr.Order position after the last kept or replaced unit
	for i, u := range units {
		p, at := pr.named(i, u.Name)
		switch {
		case p == nil:
			p = newProcedure(u)
			pr.declareShadowed(p, &local)
			moved = append(moved, u)
			fresh = append(fresh, p)
		case at < next:
			return nil, false // reordered, or named twice
		default:
			for _, q := range pr.Order[next:at] {
				moved = append(moved, q.Unit)
			}
			next = at + 1
			if p.Unit != u {
				if p = pr.replacement(p, u, &local); p == nil {
					return nil, false
				}
				fresh = append(fresh, p)
			}
		}
		if _, dup := np.Procs[p.Name]; dup || u.Kind == ast.ProgramUnit && np.Main != nil {
			return nil, false
		}
		if u.Kind == ast.ProgramUnit {
			np.Main = p
		}
		np.procIdx[p] = len(np.Order)
		np.Procs[p.Name] = p
		np.Order = append(np.Order, p)
	}
	for _, q := range pr.Order[next:] {
		moved = append(moved, q.Unit)
	}
	if np.Main == nil || local.HasErrors() || len(moved) > 0 && !pr.layoutHolds(units, moved) {
		return nil, false
	}
	for _, p := range fresh {
		for _, s := range p.Commons {
			layout := pr.CommonBlocks[s.Global.Block]
			if s.Global.Index >= len(layout) {
				return nil, false
			}
			s.Global = layout[s.Global.Index]
		}
	}

	// Pass 3 resolves calls through np.Procs, so a new unit sees every
	// other new one, and a replaced procedure's interface equals the old
	// one's.
	a := &analyzer{prog: np, diags: &local}
	for _, p := range fresh {
		a.checkBodyGuarded(p)
	}
	diags.Diags = append(diags.Diags, local.Diags...)
	if local.HasErrors() {
		return nil, false
	}
	return np, true
}

// named returns pr's procedure called name and its position, looking
// at position i first.
func (pr *Program) named(i int, name string) (*Procedure, int) {
	if i < len(pr.Order) && pr.Order[i].Name == name {
		return pr.Order[i], i
	}
	if p := pr.Procs[name]; p != nil {
		return p, pr.procIdx[p]
	}
	return nil, -1
}

// replacement returns the procedure of unit u replacing old, after pass
// 2, or nil if u changes old's interface or its effects on the COMMON
// layout.
func (pr *Program) replacement(old *Procedure, u *ast.Unit, diags *source.ErrorList) *Procedure {
	if u.Kind != old.Unit.Kind || u.Result != old.Unit.Result {
		return nil
	}
	var discard source.ErrorList
	was := pr.declareShadowed(newProcedure(old.Unit), &discard)
	p := newProcedure(u)
	now := pr.declareShadowed(p, diags)
	if !slices.Equal(was, now) || len(p.Formals) != len(old.Formals) {
		return nil
	}
	for i, f := range p.Formals {
		of := old.Formals[i]
		if f.Name != of.Name || f.Type != of.Type || f.IsArray != of.IsArray {
			return nil
		}
	}
	return p
}

// layoutHolds reports whether pass 2 over units, in order, builds pr's
// layout of every block a unit of moved names. Only the units naming
// such a block run, each against fresh private blocks, so nothing of pr
// is written.
func (pr *Program) layoutHolds(units, moved []*ast.Unit) bool {
	blocks := make(map[string]bool)
	for _, u := range moved {
		for _, d := range u.Decls {
			if c, ok := d.(*ast.CommonDecl); ok {
				blocks[c.Block] = true
			}
		}
	}
	names := func(d ast.Decl) bool { c, ok := d.(*ast.CommonDecl); return ok && blocks[c.Block] }
	shadow := &Program{CommonBlocks: make(map[string][]*GlobalVar)}
	a := &analyzer{prog: shadow, diags: &source.ErrorList{}}
	for _, u := range units {
		if slices.ContainsFunc(u.Decls, names) {
			a.declareSymbols(newProcedure(u))
		}
	}
	for b := range blocks {
		got, want := shadow.CommonBlocks[b], pr.CommonBlocks[b]
		if len(got) != len(want) {
			return false
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.Name || g.Type != w.Type || g.IsArray != w.IsArray {
				return false
			}
		}
	}
	return true
}

// declareShadowed runs pass 2 for p against private copies of the COMMON
// blocks its unit names, so nothing reachable from pr is written, and
// returns the unit's effects on the layout.
func (pr *Program) declareShadowed(p *Procedure, diags *source.ErrorList) []layoutEffect {
	shadow := &Program{CommonBlocks: make(map[string][]*GlobalVar)}
	for _, d := range p.Unit.Decls {
		c, ok := d.(*ast.CommonDecl)
		if !ok {
			continue
		}
		if _, done := shadow.CommonBlocks[c.Block]; done {
			continue
		}
		layout := make([]*GlobalVar, len(pr.CommonBlocks[c.Block]))
		for i, g := range pr.CommonBlocks[c.Block] {
			cp := *g
			layout[i] = &cp
		}
		shadow.CommonBlocks[c.Block] = layout
	}
	effects := []layoutEffect{}
	a := &analyzer{prog: shadow, diags: diags, effects: &effects}
	a.declareSymbols(p)
	return effects
}
