package sem

import (
	"repro/internal/ast"
	"repro/internal/source"
)

// This file is the front end's delta-edit entry point: re-analyzing
// exactly one replaced program unit inside an already-analyzed Program,
// in place. The point of the in-place discipline is identity
// preservation — every other unit keeps its *Procedure, every COMMON
// member keeps its *GlobalVar — so downstream artifacts keyed by those
// pointers (CFGs, jump functions, substitution decisions, value
// contexts) stay valid without any content-addressed re-keying.
//
// The operation is deliberately narrow. It succeeds only when the new
// unit leaves the program's interface facts untouched: same unit name
// and kind, and a semantic pass that neither extends nor retypes any
// COMMON block layout. Anything else — including any diagnostic from
// the new unit — makes ReplaceUnit restore the layout snapshot and
// report failure, and the caller falls back to a full re-analysis. A
// rejected replacement can cost time, never correctness.

// ReplaceUnit re-analyzes File.Units[idx] replaced by unit, mutating
// the Program in place. On success it returns the new procedure and
// true: the program is re-sealed and every untouched procedure and
// global keeps its identity. On failure it returns nil and false, and
// the program is unchanged (the caller must rebuild from source).
//
// The caller is responsible for ensuring the replacement is
// interface-preserving before calling (sessions gate on a declaration
// fingerprint); ReplaceUnit re-verifies the COMMON layout invariants it
// depends on and rejects rather than trusting the caller. diags
// receives the new unit's semantic diagnostics; any error among them
// rejects the replacement.
func (pr *Program) ReplaceUnit(idx int, unit *ast.Unit, diags *source.ErrorList) (*Procedure, bool) {
	if idx < 0 || idx >= len(pr.Order) || len(pr.Order) != len(pr.File.Units) {
		return nil, false
	}
	old := pr.Order[idx]
	if old.Unit != pr.File.Units[idx] || unit.Name != old.Name || unit.Kind != old.Unit.Kind {
		return nil, false
	}

	// Snapshot the COMMON layout facts pass 2 may mutate, to verify the
	// replacement is interface-preserving and to restore on rejection.
	type globalSnap struct {
		g       *GlobalVar
		typ     ast.BaseType
		isArray bool
	}
	var snap []globalSnap
	blockLens := make(map[string]int, len(pr.CommonBlocks))
	for block, layout := range pr.CommonBlocks {
		blockLens[block] = len(layout)
		for _, g := range layout {
			snap = append(snap, globalSnap{g, g.Type, g.IsArray})
		}
	}
	restore := func() {
		for _, s := range snap {
			s.g.Type = s.typ
			s.g.IsArray = s.isArray
		}
		for block, n := range blockLens {
			if layout := pr.CommonBlocks[block]; len(layout) > n {
				pr.CommonBlocks[block] = layout[:n]
			}
		}
		for block := range pr.CommonBlocks {
			if _, known := blockLens[block]; !known {
				delete(pr.CommonBlocks, block)
			}
		}
	}

	p := &Procedure{
		Unit:    unit,
		Name:    unit.Name,
		Symbols: make(map[string]*Symbol),
		Labels:  make(map[string]ast.Stmt),
	}
	var local source.ErrorList
	a := &analyzer{prog: pr, diags: &local}

	// Pass 2 and 3 for the one new procedure. Procs still maps the name
	// to the old procedure during the passes; that is what checkCall
	// resolves self-calls against, and the old interface equals the new
	// one by the checks below.
	a.declareSymbols(p)
	// Interface check: other units' pass-3 results read the callee's
	// formal list (count, names, types, array-ness) and result type
	// (checkCall), so the replacement must preserve them exactly — the
	// callers are not re-checked.
	if unit.Result != old.Unit.Result || len(p.Formals) != len(old.Formals) {
		restore()
		return nil, false
	}
	for i, f := range p.Formals {
		of := old.Formals[i]
		if f.Name != of.Name || f.Type != of.Type || f.IsArray != of.IsArray {
			restore()
			return nil, false
		}
	}
	layoutOK := true
	for block, layout := range pr.CommonBlocks {
		n, known := blockLens[block]
		if !known || len(layout) != n {
			layoutOK = false
			break
		}
	}
	if layoutOK {
		for _, s := range snap {
			if s.g.Type != s.typ || s.g.IsArray != s.isArray {
				layoutOK = false
				break
			}
		}
	}
	if !layoutOK {
		restore()
		return nil, false
	}
	a.checkBodyGuarded(p)
	diags.Diags = append(diags.Diags, local.Diags...)
	if local.HasErrors() {
		restore()
		return nil, false
	}

	pr.Order[idx] = p
	pr.Procs[p.Name] = p
	pr.File.Units[idx] = unit
	if pr.Main == old {
		pr.Main = p
	}
	// Re-seal: procIdx must map the new procedure; the global order is
	// reproduced bit-for-bit since every GlobalVar pointer survived.
	pr.sealGlobals()
	return p, true
}
