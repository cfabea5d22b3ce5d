// Package ssa converts a procedure CFG into SSA form (Cytron et al.:
// phi placement on iterated dominance frontiers, then renaming over the
// dominator tree).
//
// The SSA value graph is the substrate the paper's analyzer was built
// on: package intra assigns every value a symbolic expression (global
// value numbering), and package jump derives jump functions from those
// expressions.
//
// Scalar variables (locals, formals, COMMON members, function results,
// compiler temporaries) are renamed. Arrays are not tracked: array
// loads are opaque values, matching the paper's "any references to
// array elements are initialized to ⊥".
package ssa

import (
	"fmt"
	"strings"

	"repro/internal/arena"
	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/sem"
)

// Var identifies an SSA-tracked variable. COMMON members are identified
// by their program-wide GlobalVar so that every procedure names a given
// global the same way; all other scalars are identified by symbol.
type Var struct {
	Sym  *sem.Symbol
	Glob *sem.GlobalVar
}

// VarOf returns the canonical Var for a symbol.
func VarOf(s *sem.Symbol) Var {
	if s.Global != nil {
		return Var{Glob: s.Global}
	}
	return Var{Sym: s}
}

// GlobalVar returns the Var for a program global.
func GlobalVar(g *sem.GlobalVar) Var { return Var{Glob: g} }

// IsGlobal reports whether the variable is a COMMON global.
func (v Var) IsGlobal() bool { return v.Glob != nil }

func (v Var) String() string {
	if v.Glob != nil {
		return v.Glob.Key()
	}
	return v.Sym.Name
}

// ValOp enumerates SSA value operators.
type ValOp int

const (
	OpParam     ValOp = iota // entry value of a formal (AuxVar.Sym)
	OpGlobalIn               // entry value of a global (AuxVar.Glob)
	OpUndef                  // use of a possibly-uninitialized local
	OpConst                  // integer constant (AuxInt)
	OpRealConst              // real constant (AuxFloat); opaque to propagation
	OpBoolConst              // logical constant (AuxBool)
	OpStr                    // character constant; opaque
	OpPhi                    // φ; Args correspond to Block.Preds order
	OpArith                  // AuxOp applied to Args
	OpIntrinsic              // AuxName applied to Args
	OpArrayLoad              // load from array AuxVar; opaque
	OpCallRes                // result of the function call at AuxSite
	OpPostCall               // value of AuxVar after the call at AuxSite
	OpRead                   // value produced by a READ
	OpCast                   // conversion of Args[0] to the value's Type
)

var valOpNames = [...]string{
	OpParam: "param", OpGlobalIn: "globalin", OpUndef: "undef",
	OpConst: "const", OpRealConst: "realconst", OpBoolConst: "boolconst",
	OpStr: "str", OpPhi: "phi", OpArith: "arith", OpIntrinsic: "intrinsic",
	OpArrayLoad: "arrayload", OpCallRes: "callres", OpPostCall: "postcall",
	OpRead: "read", OpCast: "cast",
}

func (o ValOp) String() string { return valOpNames[o] }

// Value is one SSA value.
type Value struct {
	ID    int
	Op    ValOp
	Args  []*Value
	Block *cfg.Block
	// Type is the value's F77s type. Only INTEGER values participate in
	// constant propagation (the paper's restriction); the symbolic
	// engine treats REAL-typed values as opaque so that integer folding
	// is never applied to real arithmetic.
	Type ast.BaseType

	AuxInt   int64
	AuxFloat float64
	AuxBool  bool
	AuxOp    ast.Op        // OpArith
	AuxName  string        // OpIntrinsic
	AuxVar   Var           // OpParam/OpGlobalIn/OpUndef/OpArrayLoad/OpPostCall/OpPhi
	AuxSite  *cfg.CallSite // OpCallRes/OpPostCall
}

func (v *Value) String() string {
	switch v.Op {
	case OpConst:
		return fmt.Sprintf("v%d=%d", v.ID, v.AuxInt)
	case OpParam, OpGlobalIn, OpUndef:
		return fmt.Sprintf("v%d=%s(%s)", v.ID, v.Op, v.AuxVar)
	case OpPhi:
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			if a == nil {
				parts[i] = "nil"
			} else {
				parts[i] = fmt.Sprintf("v%d", a.ID)
			}
		}
		return fmt.Sprintf("v%d=φ(%s)[%s]", v.ID, strings.Join(parts, ","), v.AuxVar)
	case OpArith:
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			parts[i] = fmt.Sprintf("v%d", a.ID)
		}
		return fmt.Sprintf("v%d=%s(%s)", v.ID, v.AuxOp, strings.Join(parts, ","))
	default:
		return fmt.Sprintf("v%d=%s", v.ID, v.Op)
	}
}

// CallInfo records the SSA facts at one call site that the jump-function
// builder needs.
type CallInfo struct {
	Site *cfg.CallSite
	// ArgVals holds the value of each actual at the call. nil for whole
	// arrays (which have no scalar value).
	ArgVals []*Value
	// ArgIsWholeArray marks actuals that pass an entire array.
	ArgIsWholeArray []bool
	// GlobalVals holds the value of every program global just before
	// the call — the implicit "actuals" for globals.
	GlobalVals map[*sem.GlobalVar]*Value
	// Result is the OpCallRes value (function sites only).
	Result *Value
}

// Func is a procedure in SSA form.
type Func struct {
	Proc   *sem.Procedure
	Graph  *cfg.Graph
	Dom    *dom.Tree
	Values []*Value
	// Phis lists the phi values placed at each block.
	Phis map[*cfg.Block][]*Value
	// Calls maps each call site to its SSA facts.
	Calls map[*cfg.CallSite]*CallInfo
	// ExitVals holds the value of each tracked variable at procedure
	// exit (used to build return jump functions).
	ExitVals map[Var]*Value
	// uses records each evaluated expression occurrence, indexed by
	// expression number and sized to Graph.NumExprs (see UseVal).
	uses []exprUse
	// TermVal holds each block's branch-condition value.
	TermVal map[*cfg.Block]*Value
	// Params/GlobalIns give the entry values.
	Params    map[*sem.Symbol]*Value
	GlobalIns map[*sem.GlobalVar]*Value
}

// exprUse is one expression occurrence's value and the block it
// executes in.
type exprUse struct {
	val *Value
	blk *cfg.Block
}

// UseVal returns the value of an expression occurrence of the graph's
// instructions, or nil if the form never evaluated it. Reliable only
// for expressions that occur once in the graph (true for parsed source;
// compiler-synthesized nodes may repeat, and then the last evaluation
// wins).
func (f *Func) UseVal(e ast.Expr) *Value {
	if id := e.ExprID(); id < len(f.uses) {
		return f.uses[id].val
	}
	return nil
}

// UseBlock returns the block an expression occurrence executes in (the
// value's own Block is where its *def* lives, which may differ), or nil
// if the form never evaluated it.
func (f *Func) UseBlock(e ast.Expr) *cfg.Block {
	if id := e.ExprID(); id < len(f.uses) {
		return f.uses[id].blk
	}
	return nil
}

// KillFunc reports which variables a call may modify, from the
// caller's perspective: the killed actual positions (by formal index)
// and the killed globals, or all when the call kills everything.
type KillFunc func(site *cfg.CallSite) (formals map[int]bool, globals map[*sem.GlobalVar]bool, all bool)

// Options configures SSA construction.
type Options struct {
	// Kills supplies the call-site kill sets. When nil, worst-case
	// assumptions are used (every reference actual and every global is
	// killed) — the "no MOD information" configuration of Table 3.
	Kills KillFunc
	// Globals lists every program global (needed to give each one an
	// entry value and record it at call sites).
	Globals []*sem.GlobalVar
}

// Build converts one procedure to SSA form.
func Build(g *cfg.Graph, dt *dom.Tree, opts Options) *Func {
	f := &Func{
		Proc:      g.Proc,
		Graph:     g,
		Dom:       dt,
		Phis:      make(map[*cfg.Block][]*Value),
		Calls:     make(map[*cfg.CallSite]*CallInfo),
		ExitVals:  make(map[Var]*Value),
		uses:      make([]exprUse, g.NumExprs),
		TermVal:   make(map[*cfg.Block]*Value),
		Params:    make(map[*sem.Symbol]*Value),
		GlobalIns: make(map[*sem.GlobalVar]*Value),
	}
	b := &ssaBuilder{f: f, opts: opts, stacks: make(map[Var][]*Value), undefs: make(map[Var]*Value)}
	b.build()
	return f
}

// Arena chunk bounds: SSA values, and Args pointers, per slab
// allocation. Chunks start at the first size and double up to the
// maximum (arena.NextChunk), so a small procedure's form allocates
// little slack while a large one grows chunk-at-a-time with stable
// *Value addresses throughout.
const (
	valueChunkFirst, valueChunk = 16, 256
	argChunkFirst, argChunk     = 64, 1024
)

type ssaBuilder struct {
	f      *Func
	opts   Options
	stacks map[Var][]*Value
	undefs map[Var]*Value
	// arena is the chunk of Value nodes currently being filled; argSlab
	// is the shared backing store that per-value Args slices are carved
	// from. Both trade per-node heap allocations for slab allocations.
	arena   []Value
	argSlab []*Value
	// defStack is the shared renaming-definition log: rename records a
	// watermark on entry and pops back to it on exit, replacing a
	// per-block pushed slice.
	defStack []Var
}

func (b *ssaBuilder) newValue(op ValOp, blk *cfg.Block) *Value {
	if len(b.arena) == cap(b.arena) {
		b.arena = make([]Value, 0, arena.NextChunk(cap(b.arena), valueChunkFirst, valueChunk))
	}
	b.arena = b.arena[:len(b.arena)+1]
	v := &b.arena[len(b.arena)-1]
	v.ID = len(b.f.Values)
	v.Op = op
	v.Block = blk
	b.f.Values = append(b.f.Values, v)
	return v
}

// argSpan carves an n-pointer sub-slice (capacity-clamped) out of the
// shared args slab.
func (b *ssaBuilder) argSpan(n int) []*Value {
	if len(b.argSlab)+n > cap(b.argSlab) {
		c := arena.NextChunk(cap(b.argSlab), argChunkFirst, argChunk)
		if n > c {
			c = n
		}
		b.argSlab = make([]*Value, 0, c)
	}
	lo := len(b.argSlab)
	b.argSlab = b.argSlab[:lo+n]
	return b.argSlab[lo : lo+n : lo+n]
}

// trackedVars returns the set of variables to rename: every scalar,
// non-constant symbol of the procedure plus every program global.
func (b *ssaBuilder) trackedVars() map[Var]bool {
	vars := make(map[Var]bool)
	for _, s := range b.f.Proc.Symbols {
		if s.Kind == sem.SymConst || s.Kind == sem.SymProc || s.IsArray {
			continue
		}
		vars[VarOf(s)] = true
	}
	for _, g := range b.opts.Globals {
		if !g.IsArray {
			vars[GlobalVar(g)] = true
		}
	}
	return vars
}

func (b *ssaBuilder) build() {
	f := b.f
	g := f.Graph
	entry := g.Entry
	vars := b.trackedVars()

	// Entry definitions.
	for _, s := range f.Proc.Formals {
		if s.IsArray {
			continue
		}
		v := b.newValue(OpParam, entry)
		v.AuxVar = VarOf(s)
		v.Type = s.Type
		f.Params[s] = v
		b.push(VarOf(s), v)
	}
	for _, gl := range b.opts.Globals {
		if gl.IsArray {
			continue
		}
		v := b.newValue(OpGlobalIn, entry)
		v.AuxVar = GlobalVar(gl)
		v.Type = gl.Type
		f.GlobalIns[gl] = v
		b.push(GlobalVar(gl), v)
	}

	// Phi placement: collect def blocks per variable, then iterate
	// dominance frontiers.
	defBlocks := b.collectDefBlocks(vars)
	// Per-block phi maps are allocated lazily: most blocks get none.
	phiVars := make(map[*cfg.Block]map[Var]*Value)
	for v, blocks := range defBlocks {
		work := make([]*cfg.Block, 0, len(blocks))
		inWork := make(map[*cfg.Block]bool)
		for blk := range blocks {
			work = append(work, blk)
			inWork[blk] = true
		}
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			if !f.Dom.Reachable(blk) {
				continue
			}
			for _, df := range f.Dom.Frontier[blk.ID] {
				if _, has := phiVars[df][v]; has {
					continue
				}
				phi := b.newValue(OpPhi, df)
				phi.AuxVar = v
				phi.Type = varType(v)
				phi.Args = b.argSpan(len(df.Preds))
				if phiVars[df] == nil {
					phiVars[df] = make(map[Var]*Value)
				}
				phiVars[df][v] = phi
				f.Phis[df] = append(f.Phis[df], phi)
				if !inWork[df] {
					work = append(work, df)
					inWork[df] = true
				}
			}
		}
	}

	// Renaming over the dominator tree.
	b.rename(entry, phiVars)
}

// collectDefBlocks finds, per variable, the blocks containing a def.
// Entry defs (params/globals) are in the entry block.
func (b *ssaBuilder) collectDefBlocks(vars map[Var]bool) map[Var]map[*cfg.Block]bool {
	defs := make(map[Var]map[*cfg.Block]bool)
	add := func(v Var, blk *cfg.Block) {
		if !vars[v] {
			return
		}
		if defs[v] == nil {
			defs[v] = make(map[*cfg.Block]bool)
		}
		defs[v][blk] = true
	}
	entry := b.f.Graph.Entry
	for _, s := range b.f.Proc.Formals {
		if !s.IsArray {
			add(VarOf(s), entry)
		}
	}
	for _, g := range b.opts.Globals {
		if !g.IsArray {
			add(GlobalVar(g), entry)
		}
	}
	for _, blk := range b.f.Graph.Blocks {
		for _, in := range blk.Instrs {
			switch in.Kind {
			case cfg.InstrAssign:
				if in.Lhs != nil {
					add(VarOf(in.Lhs), blk)
				}
			case cfg.InstrRead:
				for _, t := range in.Targets {
					if t.Subs == nil && t.Sym != nil && !t.Sym.IsArray {
						add(VarOf(t.Sym), blk)
					}
				}
			case cfg.InstrCall:
				if in.Lhs != nil {
					add(VarOf(in.Lhs), blk)
				}
				killsF, killsG := b.killedVars(in.Site)
				for v := range killsF {
					add(v, blk)
				}
				for g := range killsG {
					add(GlobalVar(g), blk)
				}
			}
		}
	}
	return defs
}

// killedVars computes the caller-side variables a call may modify:
// scalar variable actuals bound to killed formals, and killed globals.
func (b *ssaBuilder) killedVars(site *cfg.CallSite) (map[Var]bool, map[*sem.GlobalVar]bool) {
	var killF map[int]bool
	var killG map[*sem.GlobalVar]bool
	all := true
	if b.opts.Kills != nil {
		killF, killG, all = b.opts.Kills(site)
	}
	outF := make(map[Var]bool)
	for i, arg := range site.Args {
		if !all && !killF[i] {
			continue
		}
		if id, ok := arg.(*ast.Ident); ok {
			if s := b.f.Proc.Lookup(id.Name); s != nil && !s.IsArray &&
				(s.Kind == sem.SymLocal || s.Kind == sem.SymFormal || s.Kind == sem.SymCommon || s.Kind == sem.SymResult) {
				outF[VarOf(s)] = true
			}
		}
	}
	outG := make(map[*sem.GlobalVar]bool)
	for _, g := range b.opts.Globals {
		if g.IsArray {
			continue
		}
		if all || killG[g] {
			outG[g] = true
		}
	}
	return outF, outG
}
