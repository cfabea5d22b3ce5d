// Package sem performs semantic analysis of F77s programs: it builds
// symbol tables, links COMMON blocks across program units, resolves the
// FORTRAN array-vs-call ambiguity, applies implicit typing, and type
// checks statements. Later phases (CFG, SSA, the interprocedural
// analyses) consume the resulting Program.
package sem

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/source"
)

// SymbolKind classifies names within a procedure.
type SymbolKind int

const (
	SymLocal  SymbolKind = iota // local variable
	SymFormal                   // formal parameter
	SymCommon                   // member of a COMMON block
	SymConst                    // PARAMETER named constant
	SymResult                   // the function's own name used as result
	SymProc                     // reference to a procedure (call target)
)

func (k SymbolKind) String() string {
	switch k {
	case SymLocal:
		return "local"
	case SymFormal:
		return "formal"
	case SymCommon:
		return "common"
	case SymConst:
		return "parameter-constant"
	case SymResult:
		return "function-result"
	default:
		return "procedure"
	}
}

// Symbol is one name within a procedure's scope.
type Symbol struct {
	Name    string
	Kind    SymbolKind
	Type    ast.BaseType
	IsArray bool
	Dims    []ast.Expr
	Pos     source.Position

	// FormalIndex is the 0-based position for SymFormal symbols.
	FormalIndex int
	// Global links SymCommon symbols to their program-wide identity.
	Global *GlobalVar
	// ConstValue holds the value of SymConst symbols (integers only;
	// non-integer PARAMETERs keep Const=false).
	ConstValue int64
	HasConst   bool

	// slot is the symbol's dense number within its procedure (see Slot).
	slot int
}

// Slot returns the symbol's number within its procedure: sem numbers
// symbols densely in the order it binds them, compiler temporaries
// (NewTemp) continuing the count, so 0 <= Slot() < Procedure.NumSlots()
// and no two symbols of a procedure share a number. Later phases index
// per-symbol tables by it instead of hashing *Symbol keys.
func (s *Symbol) Slot() int { return s.slot }

func (s *Symbol) String() string {
	return fmt.Sprintf("%s %s %s", s.Kind, s.Type, s.Name)
}

// GlobalVar is the program-wide identity of a COMMON block member:
// FORTRAN binds COMMON members positionally, so two procedures may use
// different names for the same storage. The paper folds these globals
// into the "parameters" that interprocedural constant propagation
// tracks.
type GlobalVar struct {
	Block   string // COMMON block name
	Index   int    // position within the block
	Name    string // canonical (first-seen) member name
	Type    ast.BaseType
	IsArray bool

	// num is the global's position in Program.Globals() (see Num).
	num int
}

// Num returns the global's position in its program's Globals(), fixed
// when analysis seals the program; later phases index per-global tables
// by it.
func (g *GlobalVar) Num() int { return g.num }

// Key returns a stable identity string, e.g. "GRID#0".
func (g *GlobalVar) Key() string { return fmt.Sprintf("%s#%d", g.Block, g.Index) }

func (g *GlobalVar) String() string {
	return fmt.Sprintf("/%s/ %s", g.Block, g.Name)
}

// ApplyKind resolves the array-vs-call ambiguity of ast.Apply nodes.
type ApplyKind int

const (
	ApplyArray ApplyKind = iota
	ApplyCall
	ApplyIntrinsic
)

// Intrinsic describes a builtin function.
type Intrinsic struct {
	Name     string
	MinArgs  int
	MaxArgs  int  // -1 = variadic
	IntInInt bool // integer args produce an integer result
}

// Intrinsics lists the supported builtin functions.
var Intrinsics = map[string]*Intrinsic{
	"MOD":  {Name: "MOD", MinArgs: 2, MaxArgs: 2, IntInInt: true},
	"MAX":  {Name: "MAX", MinArgs: 2, MaxArgs: -1, IntInInt: true},
	"MIN":  {Name: "MIN", MinArgs: 2, MaxArgs: -1, IntInInt: true},
	"ABS":  {Name: "ABS", MinArgs: 1, MaxArgs: 1, IntInInt: true},
	"IABS": {Name: "IABS", MinArgs: 1, MaxArgs: 1, IntInInt: true},
}

// Procedure is an analyzed program unit.
type Procedure struct {
	Unit    *ast.Unit
	Name    string
	Symbols map[string]*Symbol
	Formals []*Symbol // in declaration order
	// Commons lists this procedure's COMMON symbols in a stable order.
	Commons []*Symbol
	// Labels maps numeric labels to the labeled statement.
	Labels map[string]ast.Stmt
	// Result is the function-result symbol (functions only).
	Result *Symbol

	// exprTypes and applyKinds are the body check's side tables,
	// indexed by expression number (ast.Expr's ExprID) and sized to
	// Unit.NumExprs. They live and die with the procedure.
	exprTypes  []ast.BaseType
	applyKinds []ApplyKind

	nextTemp int
	numSlots int
}

// IsFunction reports whether the procedure returns a value.
func (p *Procedure) IsFunction() bool { return p.Unit.Kind == ast.FunctionUnit }

// NewTemp creates a compiler temporary of the given type. Temp names
// start with '@' so they can never collide with source names (the lexer
// rejects '@' in identifiers).
func (p *Procedure) NewTemp(t ast.BaseType) *Symbol {
	if t == ast.TypeNone {
		t = ast.TypeInteger
	}
	name := fmt.Sprintf("@T%d", p.nextTemp)
	p.nextTemp++
	s := &Symbol{Name: name, Kind: SymLocal, Type: t}
	p.bind(s)
	return s
}

// bind enters s into the scope under its name and gives it the next
// slot. Every symbol of a procedure is bound exactly once.
func (p *Procedure) bind(s *Symbol) {
	s.slot = p.numSlots
	p.numSlots++
	p.Symbols[s.Name] = s
}

// NumSlots bounds the symbols' slots (see Symbol.Slot). It grows as the
// CFG builder adds temporaries.
func (p *Procedure) NumSlots() int { return p.numSlots }

// Lookup returns the symbol for name, or nil.
func (p *Procedure) Lookup(name string) *Symbol { return p.Symbols[name] }

// TypeOf returns the analyzed type of an expression of the procedure's
// unit (TypeNone if the expression was never reached, e.g. due to
// earlier errors).
func (p *Procedure) TypeOf(e ast.Expr) ast.BaseType {
	if id := e.ExprID(); id < len(p.exprTypes) {
		return p.exprTypes[id]
	}
	return ast.TypeNone
}

// ApplyKindOf returns the resolution of an Apply node of the
// procedure's unit.
func (p *Procedure) ApplyKindOf(a *ast.Apply) ApplyKind {
	if a.ID < len(p.applyKinds) {
		return p.applyKinds[a.ID]
	}
	return ApplyArray
}

// setType and setApplyKind record pass-3 results. Number 0 marks an
// unnumbered node, whose slot no table stores.
func (p *Procedure) setType(e ast.Expr, t ast.BaseType) {
	if id := e.ExprID(); id != 0 {
		p.exprTypes[id] = t
	}
}

func (p *Procedure) setApplyKind(a *ast.Apply, k ApplyKind) {
	if a.ID != 0 {
		p.applyKinds[a.ID] = k
	}
}

// Program is a fully analyzed F77s program.
type Program struct {
	File  *ast.File
	Procs map[string]*Procedure
	// Order lists procedures in source order; Order[i].Unit == File.Units[i]
	// for well-formed programs.
	Order []*Procedure
	Main  *Procedure

	// CommonBlocks maps block name to the canonical member layout.
	CommonBlocks map[string][]*GlobalVar

	// globalsCache is the stable Globals() order, sealed once after
	// analysis so solver inner loops share one slice.
	globalsCache []*GlobalVar
	// procIdx is the dense-index view sealed alongside globalsCache:
	// procIdx[Order[i]] == i. With GlobalVar.Num it lets the solver keep
	// its VAL state in flat slices instead of per-procedure maps.
	procIdx map[*Procedure]int
}

// Globals returns all COMMON globals in a stable order. The slice is
// computed once when analysis completes and shared thereafter (callers
// sit in solver inner loops); it must not be modified.
func (pr *Program) Globals() []*GlobalVar {
	if pr.globalsCache == nil {
		pr.sealGlobals()
	}
	return pr.globalsCache
}

// sealGlobals fixes the stable global order. Analysis calls it once
// before handing the Program out; after that Globals() is read-only and
// safe for concurrent use.
func (pr *Program) sealGlobals() {
	blocks := make([]string, 0, len(pr.CommonBlocks))
	for b := range pr.CommonBlocks {
		blocks = append(blocks, b)
	}
	sort.Strings(blocks)
	gs := make([]*GlobalVar, 0, len(blocks))
	for _, b := range blocks {
		gs = append(gs, pr.CommonBlocks[b]...)
	}
	pr.globalsCache = gs
	for i, g := range gs {
		g.num = i
	}
	pr.procIdx = make(map[*Procedure]int, len(pr.Order))
	for i, p := range pr.Order {
		pr.procIdx[p] = i
	}
}

// ProcIndex returns p's position in Order (-1 if p is not part of this
// program). Sealed with Globals(); safe for concurrent use afterwards.
func (pr *Program) ProcIndex(p *Procedure) int {
	if pr.procIdx == nil {
		pr.sealGlobals()
	}
	if i, ok := pr.procIdx[p]; ok {
		return i
	}
	return -1
}

// GlobalIndex returns g's position in Globals() (-1 if g is not part of
// this program). Sealed with Globals(); safe for concurrent use
// afterwards.
func (pr *Program) GlobalIndex(g *GlobalVar) int {
	if gs := pr.Globals(); g.num < len(gs) && gs[g.num] == g {
		return g.num
	}
	return -1
}

// Analyze runs semantic analysis over a parsed file. It always returns a
// Program (possibly partial); callers should check diags for errors
// before trusting it.
func Analyze(file *ast.File, diags *source.ErrorList) *Program {
	return AnalyzeParallel(file, diags, 1)
}

// AnalyzeParallel is Analyze with the body-checking pass (pass 3) fanned
// out over up to workers goroutines (<= 0 selects GOMAXPROCS, 1 is the
// serial pass). Passes 1 and 2 stay serial: they mutate program-wide
// state (unit registration, COMMON block layouts). Pass 3 touches only
// its own unit's symbols and side tables plus read-only facts fixed by
// pass 2 (callee formal lists, unit kinds, result types), so units are
// independent; each worker collects its unit's diagnostics privately,
// appended in unit order so output is identical to the serial pass.
func AnalyzeParallel(file *ast.File, diags *source.ErrorList, workers int) *Program {
	prog, _ := AnalyzeParallelCtx(nil, file, diags, workers)
	return prog
}

// AnalyzeParallelCtx is AnalyzeParallel bounded by a context: workers
// observe ctx.Done() between units, so a cancelled or deadline-exceeded
// analysis stops burning CPU instead of checking every remaining body.
// A cancelled pass returns a nil Program and *guard.Exhausted on the
// deadline axis — a partially checked Program is never handed out,
// because downstream phases would treat missing type facts as bugs. A
// nil ctx never cancels.
func AnalyzeParallelCtx(ctx context.Context, file *ast.File, diags *source.ErrorList, workers int) (*Program, error) {
	defer guard.Repanic("sem")
	guard.InjectPanic("sem")
	prog := &Program{
		File:         file,
		Procs:        make(map[string]*Procedure),
		CommonBlocks: make(map[string][]*GlobalVar),
	}
	a := &analyzer{prog: prog, diags: diags}
	a.collectUnits()
	for _, p := range a.prog.Order {
		a.declareSymbols(p)
	}
	n := len(a.prog.Order)
	if par.Workers(workers, n) <= 1 {
		for _, p := range a.prog.Order {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, &guard.Exhausted{Axis: guard.AxisDeadline, Cause: err, Site: "sem"}
				}
			}
			a.checkBodyGuarded(p)
		}
		a.prog.sealGlobals()
		return a.prog, nil
	}
	unitDiags := make([]source.ErrorList, n)
	err := par.ForEachCtx(ctx, workers, n, func(i int) error {
		sh := &analyzer{prog: prog, diags: &unitDiags[i]}
		sh.checkBodyGuarded(prog.Order[i])
		return nil
	})
	if err != nil {
		return nil, &guard.Exhausted{Axis: guard.AxisDeadline, Cause: err, Site: "sem"}
	}
	for _, d := range unitDiags {
		diags.Diags = append(diags.Diags, d.Diags...)
	}
	a.prog.sealGlobals()
	return a.prog, nil
}

type analyzer struct {
	prog  *Program
	diags *source.ErrorList
	// effects, when non-nil, collects pass 2's effects on the COMMON
	// layout (see Program.Derive).
	effects *[]layoutEffect
}

// noteLayout records one effect on the COMMON layout if effects are
// being collected.
func (a *analyzer) noteLayout(e layoutEffect) {
	if a.effects != nil {
		*a.effects = append(*a.effects, e)
	}
}

// checkBodyGuarded tags panics during body checking with the unit name,
// so fault attribution survives both the serial and the parallel pass.
func (a *analyzer) checkBodyGuarded(p *Procedure) {
	defer guard.Repanic("sem", p.Name)
	a.checkBody(p)
}

func (a *analyzer) errorf(pos source.Position, format string, args ...interface{}) {
	a.diags.Errorf(pos, format, args...)
}

// implicitType applies FORTRAN implicit typing: names beginning with
// I..N are INTEGER, everything else REAL.
func implicitType(name string) ast.BaseType {
	if name == "" {
		return ast.TypeReal
	}
	if c := name[0]; c >= 'I' && c <= 'N' {
		return ast.TypeInteger
	}
	return ast.TypeReal
}

// ---------------------------------------------------------------------
// Pass 1: collect program units

func (a *analyzer) collectUnits() {
	for _, u := range a.prog.File.Units {
		if prev, dup := a.prog.Procs[u.Name]; dup {
			a.errorf(u.Pos(), "duplicate program unit %s (previously defined at %s)", u.Name, prev.Unit.Pos())
			continue
		}
		p := newProcedure(u)
		a.prog.Procs[u.Name] = p
		a.prog.Order = append(a.prog.Order, p)
		if u.Kind == ast.ProgramUnit {
			if a.prog.Main != nil {
				a.errorf(u.Pos(), "multiple PROGRAM units (%s and %s)", a.prog.Main.Name, u.Name)
			} else {
				a.prog.Main = p
			}
		}
	}
	if a.prog.Main == nil && len(a.prog.Order) > 0 {
		a.errorf(a.prog.File.Pos(), "no PROGRAM unit found")
	}
}

// newProcedure returns the empty procedure of unit u.
func newProcedure(u *ast.Unit) *Procedure {
	return &Procedure{
		Unit:    u,
		Name:    u.Name,
		Symbols: make(map[string]*Symbol),
		Labels:  make(map[string]ast.Stmt),
	}
}

// ---------------------------------------------------------------------
// Pass 2: declarations and symbol tables

func (a *analyzer) declareSymbols(p *Procedure) {
	u := p.Unit

	// Formal parameters first; types may be refined by declarations.
	for i, f := range u.Params {
		if _, dup := p.Symbols[f.Name]; dup {
			a.errorf(f.Pos(), "duplicate formal parameter %s in %s", f.Name, p.Name)
			continue
		}
		s := &Symbol{Name: f.Name, Kind: SymFormal, Type: implicitType(f.Name), FormalIndex: i, Pos: f.Pos()}
		p.bind(s)
		p.Formals = append(p.Formals, s)
	}

	// Function result symbol.
	if u.Kind == ast.FunctionUnit {
		if _, dup := p.Symbols[u.Name]; dup {
			a.errorf(u.Pos(), "function name %s collides with a formal parameter", u.Name)
		} else {
			s := &Symbol{Name: u.Name, Kind: SymResult, Type: u.Result, Pos: u.Pos()}
			p.bind(s)
			p.Result = s
		}
	}

	for _, d := range u.Decls {
		switch decl := d.(type) {
		case *ast.VarDecl:
			for _, it := range decl.Items {
				a.declareItem(p, it, decl.Type)
			}
		case *ast.DimensionDecl:
			for _, it := range decl.Items {
				if len(it.Dims) == 0 {
					a.errorf(it.Pos(), "DIMENSION item %s has no dimensions", it.Name)
					continue
				}
				a.declareItem(p, it, ast.TypeNone)
			}
		case *ast.CommonDecl:
			a.declareCommon(p, decl)
		case *ast.ParamDecl:
			for i, name := range decl.Names {
				if _, dup := p.Symbols[name]; dup {
					a.errorf(decl.Pos(), "PARAMETER %s redeclares an existing name", name)
					continue
				}
				s := &Symbol{Name: name, Kind: SymConst, Type: implicitType(name), Pos: decl.Pos()}
				if v, ok := a.constEval(p, decl.Values[i]); ok {
					s.ConstValue = v
					s.HasConst = true
					s.Type = ast.TypeInteger
				}
				p.bind(s)
			}
		case *ast.DataDecl:
			// DATA names must exist (declared or implicit); treated as an
			// initializing assignment by later phases.
			for _, name := range decl.Names {
				a.ensureVar(p, name, decl.Pos())
			}
		}
	}
}

// declareItem declares (or refines) one variable. typ == TypeNone means
// "keep the existing or implicit type" (DIMENSION statements).
func (a *analyzer) declareItem(p *Procedure, it *ast.DeclItem, typ ast.BaseType) {
	if s, exists := p.Symbols[it.Name]; exists {
		// Refining an existing symbol (formal, result, or common member).
		if typ != ast.TypeNone {
			s.Type = typ
		}
		if len(it.Dims) > 0 {
			if s.IsArray {
				a.errorf(it.Pos(), "%s already has dimensions", it.Name)
			}
			s.IsArray = true
			s.Dims = it.Dims
			if s.Global != nil {
				s.Global.IsArray = true
			}
		}
		if s.Global != nil && typ != ast.TypeNone {
			s.Global.Type = typ
		}
		if s.Global != nil && (typ != ast.TypeNone || len(it.Dims) > 0) {
			a.noteLayout(layoutEffect{block: s.Global.Block, index: s.Global.Index, typ: typ, array: len(it.Dims) > 0})
		}
		return
	}
	t := typ
	if t == ast.TypeNone {
		t = implicitType(it.Name)
	}
	p.bind(&Symbol{
		Name: it.Name, Kind: SymLocal, Type: t,
		IsArray: len(it.Dims) > 0, Dims: it.Dims, Pos: it.Pos(),
	})
}

func (a *analyzer) declareCommon(p *Procedure, decl *ast.CommonDecl) {
	block := decl.Block
	layout := a.prog.CommonBlocks[block]
	for i, it := range decl.Items {
		// Extend the canonical layout if this procedure declares more
		// members than any previous one.
		if i >= len(layout) {
			layout = append(layout, &GlobalVar{
				Block: block, Index: i, Name: it.Name,
				Type: implicitType(it.Name), IsArray: len(it.Dims) > 0,
			})
		}
		g := layout[i]
		a.noteLayout(layoutEffect{block: block, index: i, name: it.Name, array: len(it.Dims) > 0})
		if s, exists := p.Symbols[it.Name]; exists {
			// A prior type declaration (e.g. INTEGER N before COMMON) is
			// folded into the common symbol.
			if s.Kind != SymLocal {
				a.errorf(it.Pos(), "%s cannot appear in COMMON (already a %s)", it.Name, s.Kind)
				continue
			}
			s.Kind = SymCommon
			s.Global = g
			g.Type = s.Type
			if s.IsArray {
				g.IsArray = true
			}
			a.noteLayout(layoutEffect{block: block, index: i, typ: s.Type, array: s.IsArray})
			p.Commons = append(p.Commons, s)
			continue
		}
		s := &Symbol{
			Name: it.Name, Kind: SymCommon, Type: implicitType(it.Name),
			IsArray: len(it.Dims) > 0, Dims: it.Dims, Global: g, Pos: it.Pos(),
		}
		p.bind(s)
		p.Commons = append(p.Commons, s)
	}
	a.prog.CommonBlocks[block] = layout
}

// ensureVar returns the symbol for name, creating an implicitly typed
// local if the name is new.
func (a *analyzer) ensureVar(p *Procedure, name string, pos source.Position) *Symbol {
	if s, ok := p.Symbols[name]; ok {
		return s
	}
	s := &Symbol{Name: name, Kind: SymLocal, Type: implicitType(name), Pos: pos}
	p.bind(s)
	return s
}

// constEval evaluates integer constant expressions (PARAMETER values,
// which may reference earlier PARAMETERs).
func (a *analyzer) constEval(p *Procedure, e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.Ident:
		if s, ok := p.Symbols[x.Name]; ok && s.Kind == SymConst && s.HasConst {
			return s.ConstValue, true
		}
	case *ast.Unary:
		if x.Op == ast.OpNeg {
			if v, ok := a.constEval(p, x.X); ok {
				return -v, true
			}
		}
	case *ast.Binary:
		l, lok := a.constEval(p, x.X)
		r, rok := a.constEval(p, x.Y)
		if lok && rok {
			switch x.Op {
			case ast.OpAdd:
				return l + r, true
			case ast.OpSub:
				return l - r, true
			case ast.OpMul:
				return l * r, true
			case ast.OpDiv:
				if r != 0 {
					return l / r, true
				}
			case ast.OpPow:
				if r >= 0 && r < 63 {
					v := int64(1)
					for i := int64(0); i < r; i++ {
						v *= l
					}
					return v, true
				}
			}
		}
	}
	return 0, false
}
