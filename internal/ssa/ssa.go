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
	"repro/internal/bitset"
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
type ValOp uint8

const (
	OpParam     ValOp = iota // entry value of a formal (AuxVar.Sym)
	OpGlobalIn               // entry value of a global (AuxVar.Glob)
	OpUndef                  // use of a possibly-uninitialized local
	OpConst                  // integer constant (AuxInt); one per distinct value, in the entry block
	OpRealConst              // real constant; opaque to propagation, so its value is not kept
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

// Value is one SSA value. Its one-byte fields share the word after ID,
// keeping the node at 88 bytes on 64-bit platforms.
type Value struct {
	ID int32
	Op ValOp
	// Type is the value's F77s type. Only INTEGER values participate in
	// constant propagation (the paper's restriction); the symbolic
	// engine treats REAL-typed values as opaque so that integer folding
	// is never applied to real arithmetic.
	Type    ast.BaseType
	AuxOp   ast.Op // OpArith
	AuxBool bool
	Args    []*Value
	Block   *cfg.Block

	AuxInt  int64
	AuxName string        // OpIntrinsic
	AuxVar  Var           // OpParam/OpGlobalIn/OpUndef/OpArrayLoad/OpPostCall/OpPhi
	AuxSite *cfg.CallSite // OpCallRes/OpPostCall
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
	// Post lists the OpPostCall values the call defines, one per
	// variable it may modify: killed actuals in argument order, then
	// killed globals in Globals() order.
	Post []*Value
	// Result is the OpCallRes value (function sites only).
	Result *Value
	// globalVals holds the value of every scalar program global just
	// before the call — the implicit "actuals" for globals — indexed by
	// GlobalVar.Num.
	globalVals []*Value
}

// GlobalVal returns the value of global g just before the call (nil for
// array globals).
func (c *CallInfo) GlobalVal(g *sem.GlobalVar) *Value {
	if n := g.Num(); n < len(c.globalVals) {
		return c.globalVals[n]
	}
	return nil
}

// GlobalVals returns the values of the globals just before the call,
// indexed by GlobalVar.Num (nil for array globals). The slice is shared;
// callers must not modify it.
func (c *CallInfo) GlobalVals() []*Value { return c.globalVals }

// Func is a procedure in SSA form.
//
// Per-variable tables are indexed by variable number: a global's
// GlobalVar.Num, and numGlobals plus its Slot for any other symbol.
// Per-block tables are indexed by block ID, per-site ones by CallSite.ID.
type Func struct {
	Proc   *sem.Procedure
	Graph  *cfg.Graph
	Dom    *dom.Tree
	Values []*Value
	// phis[phiStart[b]:phiStart[b+1]] are the phis placed at block b.
	phis     []*Value
	phiStart []int32
	// calls holds each reached call site's facts (Site nil otherwise).
	calls []CallInfo
	// exitVals holds the value of each formal, global and function
	// result at procedure exit (used to build return jump functions).
	exitVals []*Value
	// termVals holds each block's branch-condition value.
	termVals []*Value
	// uses records each evaluated expression occurrence, indexed by
	// expression number and sized to Graph.NumExprs (see UseVal).
	uses       []exprUse
	numGlobals int
}

// exprUse is one expression occurrence's value and the block it
// executes in.
type exprUse struct {
	val *Value
	blk *cfg.Block
}

// varNum returns v's variable number, or -1 when v lies outside the
// tables the form was built with.
func (f *Func) varNum(v Var) int {
	if v.Glob != nil {
		if n := v.Glob.Num(); n < f.numGlobals {
			return n
		}
		return -1
	}
	return f.numGlobals + v.Sym.Slot()
}

// Phis returns the phi values placed at blk.
func (f *Func) Phis(blk *cfg.Block) []*Value {
	return f.phis[f.phiStart[blk.ID]:f.phiStart[blk.ID+1]]
}

// TermVal returns blk's branch-condition value (nil unless blk ends in
// a reached conditional branch).
func (f *Func) TermVal(blk *cfg.Block) *Value { return f.termVals[blk.ID] }

// Call returns the SSA facts at site, or nil if renaming never reached
// it.
func (f *Func) Call(site *cfg.CallSite) *CallInfo {
	if c := &f.calls[site.ID]; c.Site != nil {
		return c
	}
	return nil
}

// ExitVal returns the value of a formal, global or function result of
// the procedure at exit, or nil for any other variable or when the exit
// is unreachable.
func (f *Func) ExitVal(v Var) *Value {
	if n := f.varNum(v); n >= 0 && n < len(f.exitVals) {
		return f.exitVals[n]
	}
	return nil
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
// and the killed globals (by GlobalVar.Num), or all when the call kills
// everything. The sets are read, never modified.
type KillFunc func(site *cfg.CallSite) (formals, globals bitset.Set, all bool)

// Options configures SSA construction.
type Options struct {
	// Kills supplies the call-site kill sets. When nil, worst-case
	// assumptions are used (every reference actual and every global is
	// killed) — the "no MOD information" configuration of Table 3.
	Kills KillFunc
	// Globals lists every program global in Program.Globals() order
	// (needed to give each one an entry value and record it at call
	// sites).
	Globals []*sem.GlobalVar
}

// Build converts one procedure to SSA form. It reads the procedure's
// symbol slots and the globals' numbers and writes nothing shared, so
// forms of one procedure may be built concurrently.
func Build(g *cfg.Graph, dt *dom.Tree, opts Options) *Func {
	p := g.Proc
	ng := len(opts.Globals)
	for _, s := range p.Commons {
		if n := s.Global.Num() + 1; n > ng {
			ng = n
		}
	}
	f := &Func{
		Proc:       p,
		Graph:      g,
		Dom:        dt,
		calls:      make([]CallInfo, len(g.Sites)),
		termVals:   make([]*Value, len(g.Blocks)),
		uses:       make([]exprUse, g.NumExprs),
		numGlobals: ng,
	}
	b := &ssaBuilder{
		f:      f,
		opts:   opts,
		vars:   make([]varState, ng+p.NumSlots()),
		consts: make([]*Value, constsFirst),
	}
	b.build()
	return f
}

// Arena chunk bounds: SSA values, and Args pointers, per slab
// allocation after the first. The first chunks are sized from what the
// graph already tells (see build), so most forms fit in one; chunks
// after it start at the first size here and double up to the maximum
// (arena.NextChunk), keeping *Value addresses stable throughout.
const (
	valueChunkFirst, valueChunk = 16, 256
	argChunkFirst, argChunk     = 64, 1024
	// constsFirst is the constant table's initial slot count.
	constsFirst = 16
)

// varState is one variable's renaming state.
type varState struct {
	// cur is the reaching definition during renaming (nil: none yet).
	cur *Value
	// v is the variable; set once it has a definition.
	v Var
	// defs heads the variable's def-block list: 1 + an index into
	// ssaBuilder.defs, or 0 when the variable has no definition.
	defs int32
	// killMark is 1 + the ID of the last call site that listed the
	// variable among its kills.
	killMark int32
}

// defBlock links one (variable, block) definition pair into the
// variable's list, most recent block first.
type defBlock struct {
	blk, next int32
}

// savedDef records a renaming definition to undo on leaving its block.
type savedDef struct {
	num int32
	old *Value
}

type ssaBuilder struct {
	f    *Func
	opts Options
	vars []varState
	defs []defBlock
	// consts is an open-addressed table of the OpConst values, kept at
	// most half full; nconsts counts its entries.
	consts  []*Value
	nconsts int
	// kills[killStart[s]:killStart[s+1]] are the numbers of the
	// variables call site s may modify, in CallInfo.Post order.
	kills     []int32
	killStart []int32
	// arena is the chunk of Value nodes currently being filled; argSlab
	// is the shared backing store that per-value Args slices are carved
	// from. Both trade per-node heap allocations for slab allocations,
	// as does globalSlab, which holds every site's global values,
	// numGlobals per site ID.
	arena      []Value
	argSlab    []*Value
	globalSlab []*Value
	// valGrown and argGrown are the sizes of the last chunks added
	// after the first.
	valGrown, argGrown int
	// defStack is the shared renaming-definition log: rename records a
	// watermark on entry and pops back to it on exit.
	defStack []savedDef
}

func (b *ssaBuilder) newValue(op ValOp, blk *cfg.Block) *Value {
	if len(b.arena) == cap(b.arena) {
		b.valGrown = arena.NextChunk(b.valGrown, valueChunkFirst, valueChunk)
		b.arena = make([]Value, 0, b.valGrown)
	}
	b.arena = b.arena[:len(b.arena)+1]
	v := &b.arena[len(b.arena)-1]
	v.ID = int32(len(b.f.Values))
	v.Op = op
	v.Block = blk
	b.f.Values = append(b.f.Values, v)
	return v
}

// argSpan carves an n-pointer sub-slice (capacity-clamped) out of the
// shared args slab.
func (b *ssaBuilder) argSpan(n int) []*Value {
	if len(b.argSlab)+n > cap(b.argSlab) {
		b.argGrown = arena.NextChunk(b.argGrown, argChunkFirst, argChunk)
		b.argSlab = make([]*Value, 0, max(n, b.argGrown))
	}
	lo := len(b.argSlab)
	b.argSlab = b.argSlab[:lo+n]
	return b.argSlab[lo : lo+n : lo+n]
}

// tracked reports whether a symbol is renamed: scalar variables only.
func tracked(s *sem.Symbol) bool {
	return s.Kind != sem.SymConst && s.Kind != sem.SymProc && !s.IsArray
}

// addDef records that v is defined in blk.
func (b *ssaBuilder) addDef(v Var, blk *cfg.Block) {
	vs := &b.vars[b.f.varNum(v)]
	if vs.defs != 0 && b.defs[vs.defs-1].blk == int32(blk.ID) {
		return
	}
	vs.v = v
	b.defs = append(b.defs, defBlock{blk: int32(blk.ID), next: vs.defs})
	vs.defs = int32(len(b.defs))
}

func (b *ssaBuilder) build() {
	f := b.f
	g := f.Graph
	entry := g.Entry

	// Def blocks and call kill lists, in one walk. Sites are numbered
	// in block order, so the walk meets them by ascending ID.
	for _, s := range f.Proc.Formals {
		if !s.IsArray {
			b.addDef(VarOf(s), entry)
		}
	}
	for _, gl := range b.opts.Globals {
		if !gl.IsArray {
			b.addDef(GlobalVar(gl), entry)
		}
	}
	b.killStart = make([]int32, len(g.Sites)+1)
	nargs := 0
	for _, blk := range g.Blocks {
		for _, in := range blk.Instrs {
			switch in.Kind {
			case cfg.InstrAssign:
				if in.Lhs != nil && tracked(in.Lhs) {
					b.addDef(VarOf(in.Lhs), blk)
				}
			case cfg.InstrRead:
				for _, t := range in.Targets {
					if t.Subs == nil && t.Sym != nil && tracked(t.Sym) {
						b.addDef(VarOf(t.Sym), blk)
					}
				}
			case cfg.InstrCall:
				if in.Lhs != nil && tracked(in.Lhs) {
					b.addDef(VarOf(in.Lhs), blk)
				}
				b.collectKills(in.Site, blk)
				nargs += len(in.Site.Args)
			}
		}
	}

	// Size the first chunks from the graph: entry values, post-call
	// values and call results, plus one value and one argument per two
	// expression nodes (identifiers, about half of them, and repeated
	// constants make no value; phis take some of that share).
	nvals := g.NumExprs/2 + len(f.Proc.Formals) + len(b.opts.Globals) + len(b.kills) + len(g.Sites)
	b.arena = make([]Value, 0, nvals)
	b.argSlab = make([]*Value, 0, g.NumExprs/2+len(b.kills)+nargs)
	f.Values = make([]*Value, 0, nvals)
	b.globalSlab = make([]*Value, len(g.Sites)*f.numGlobals)

	// Entry definitions.
	for _, s := range f.Proc.Formals {
		if s.IsArray {
			continue
		}
		v := b.newValue(OpParam, entry)
		v.AuxVar = VarOf(s)
		v.Type = s.Type
		b.vars[f.varNum(v.AuxVar)].cur = v
	}
	for _, gl := range b.opts.Globals {
		if gl.IsArray {
			continue
		}
		v := b.newValue(OpGlobalIn, entry)
		v.AuxVar = GlobalVar(gl)
		v.Type = gl.Type
		b.vars[gl.Num()].cur = v
	}

	b.placePhis()
	b.rename(entry)
}

// collectKills appends the variables the call at site may modify to the
// kill lists: scalar variable actuals bound to killed formals, then
// killed globals, each once. Each is also a definition in blk.
func (b *ssaBuilder) collectKills(site *cfg.CallSite, blk *cfg.Block) {
	var killF, killG bitset.Set
	all := true
	if b.opts.Kills != nil {
		killF, killG, all = b.opts.Kills(site)
	}
	mark := int32(site.ID + 1)
	kill := func(v Var) {
		n := b.f.varNum(v)
		if b.vars[n].killMark == mark {
			return
		}
		b.vars[n].killMark = mark
		b.kills = append(b.kills, int32(n))
		b.addDef(v, blk)
	}
	for i, arg := range site.Args {
		if !all && !killF.Has(i) {
			continue
		}
		if id, ok := arg.(*ast.Ident); ok {
			if s := b.f.Proc.Lookup(id.Name); s != nil && tracked(s) {
				kill(VarOf(s))
			}
		}
	}
	if all || !killG.Empty() {
		for _, g := range b.opts.Globals {
			if !g.IsArray && (all || killG.Has(g.Num())) {
				kill(GlobalVar(g))
			}
		}
	}
	b.killStart[site.ID+1] = int32(len(b.kills))
}

// placePhis places phis on the iterated dominance frontiers of each
// variable's def blocks, variable by variable in number order, so value
// numbering is the same on every build. Stamps (1 + variable number)
// mark the blocks that already have the variable's phi or sit on its
// worklist.
func (b *ssaBuilder) placePhis() {
	f := b.f
	nblk := len(f.Graph.Blocks)
	hasPhi := make([]int32, 2*nblk)
	inWork := hasPhi[nblk:]
	var work []int32
	first := len(f.Values)
	for n := range b.vars {
		vs := &b.vars[n]
		if vs.defs == 0 {
			continue
		}
		stamp := int32(n + 1)
		work = work[:0]
		for d := vs.defs; d != 0; d = b.defs[d-1].next {
			blk := b.defs[d-1].blk
			inWork[blk] = stamp
			work = append(work, blk)
		}
		for len(work) > 0 {
			blk := f.Graph.Blocks[work[len(work)-1]]
			work = work[:len(work)-1]
			if !f.Dom.Reachable(blk) {
				continue
			}
			for _, df := range f.Dom.Frontier[blk.ID] {
				if hasPhi[df.ID] == stamp {
					continue
				}
				hasPhi[df.ID] = stamp
				phi := b.newValue(OpPhi, df)
				phi.AuxVar = vs.v
				phi.Type = varType(vs.v)
				phi.Args = b.argSpan(len(df.Preds))
				if inWork[df.ID] != stamp {
					inWork[df.ID] = stamp
					work = append(work, int32(df.ID))
				}
			}
		}
	}

	// Group the phis by block, keeping placement order within a block.
	placed := f.Values[first:]
	f.phiStart = make([]int32, nblk+1)
	for _, phi := range placed {
		f.phiStart[phi.Block.ID+1]++
	}
	for i := 1; i <= nblk; i++ {
		f.phiStart[i] += f.phiStart[i-1]
	}
	f.phis = make([]*Value, len(placed))
	fill := hasPhi[:nblk]
	clear(fill)
	for _, phi := range placed {
		id := phi.Block.ID
		f.phis[f.phiStart[id]+fill[id]] = phi
		fill[id]++
	}
}
