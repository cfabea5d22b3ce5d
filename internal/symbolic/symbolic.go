// Package symbolic implements hash-consed symbolic expressions over a
// procedure's entry values (formal parameters and COMMON globals).
//
// These expressions are the currency of the jump-function framework:
//   - a *forward jump function* J_s^y is a symbolic expression giving
//     the value of actual y at call site s in terms of the caller's
//     entry values;
//   - a *return jump function* R_p^x is a symbolic expression giving
//     the value of formal x on return from p in terms of p's entry
//     values.
//
// Expressions are interned in a Builder, so pointer equality is
// structural equality — this is what makes the value-numbering-based
// construction of §3 cheap. Construction folds integer constants and
// applies simple algebraic identities.
//
// Representation: a Builder is an arena. Nodes live in chunks of a slab
// that start small and double up to a fixed size (so *Expr handles stay
// stable while the pool grows without per-node heap allocation, and a
// small builder stays small), every node carries a dense uint32
// pool id, and interior nodes are deduplicated through an
// open-addressed table keyed on the packed {op, kid0, kid1, kid2}
// struct — no per-intern map churn, no allocation on an intern hit.
// Args and support slices are carved out of shared backing slabs.
// Pool ids are builder-local bookkeeping only: every cross-builder
// order (commutative canonicalization, support order) goes through
// StructCompare, which depends on structure alone.
package symbolic

import (
	"fmt"
	"strings"

	"repro/internal/arena"
	"repro/internal/sem"
)

// Op enumerates symbolic expression operators.
type Op int

// OpInvalid is returned by FromASTOp for an operator with no symbolic
// counterpart. Builder.Binary maps it to a fresh opaque value, so an
// unmapped operator degrades to a non-constant jump function instead of
// crashing the analysis.
const OpInvalid Op = -1

const (
	OpConst  Op = iota // integer constant (K)
	OpBool             // boolean constant (B)
	OpParam            // entry value of a formal parameter (Param)
	OpGlobal           // entry value of a COMMON global (Global)
	OpOpaque           // unknown, non-constant value (K = identity)

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpPow
	OpNeg

	OpMod
	OpMax
	OpMin
	OpAbs

	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	OpAnd
	OpOr
	OpNot

	// OpGamma is the gated-SSA γ function: Args are [predicate, value
	// when true, value when false]. The paper (§4.2) observes that jump
	// functions built on gated single-assignment form would subsume the
	// "complete propagation" results; Gamma is what makes that possible
	// — a merged value stays evaluable once the predicate is known.
	OpGamma
)

var opNames = map[Op]string{
	OpInvalid: "invalid",
	OpConst:   "const", OpBool: "bool", OpParam: "param", OpGlobal: "global",
	OpOpaque: "opaque",
	OpAdd:    "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpPow: "**", OpNeg: "neg",
	OpMod: "MOD", OpMax: "MAX", OpMin: "MIN", OpAbs: "ABS",
	OpEq: ".EQ.", OpNe: ".NE.", OpLt: ".LT.", OpLe: ".LE.", OpGt: ".GT.", OpGe: ".GE.",
	OpAnd: ".AND.", OpOr: ".OR.", OpNot: ".NOT.", OpGamma: "γ",
}

func (o Op) String() string { return opNames[o] }

// Expr is an interned symbolic expression. Compare with ==. Exprs are
// allocated from their Builder's arena; the pool id is builder-local
// and never leaks into any cross-builder order.
type Expr struct {
	Op   Op
	Args []*Expr

	K      int64          // OpConst value; OpOpaque identity
	B      bool           // OpBool value
	Param  *sem.Symbol    // OpParam leaf
	Global *sem.GlobalVar // OpGlobal leaf

	id      uint32
	size    int  // node count, this node included
	opaque  bool // contains an OpOpaque anywhere
	support []*Expr
}

// Size returns the expression's node count (leaves are size 1). Shared
// subexpressions count once per occurrence, matching evaluation cost.
func (e *Expr) Size() int { return e.size }

// IsConst reports whether the expression is an integer constant.
func (e *Expr) IsConst() (int64, bool) { return e.K, e.Op == OpConst }

// IsBool reports whether the expression is a boolean constant.
func (e *Expr) IsBool() (bool, bool) { return e.B, e.Op == OpBool }

// HasOpaque reports whether any subexpression is opaque (and hence the
// expression can never evaluate to a constant).
func (e *Expr) HasOpaque() bool { return e.opaque }

// Support returns the Param/Global leaves the expression depends on —
// the "support" of a jump function in the paper's terminology. The
// result is shared; callers must not modify it.
func (e *Expr) Support() []*Expr { return e.support }

// String renders the expression readably, e.g. "(+ N 1)".
func (e *Expr) String() string {
	switch e.Op {
	case OpConst:
		return fmt.Sprintf("%d", e.K)
	case OpBool:
		if e.B {
			return ".TRUE."
		}
		return ".FALSE."
	case OpParam:
		return e.Param.Name
	case OpGlobal:
		return e.Global.Key()
	case OpOpaque:
		return fmt.Sprintf("?%d", e.K)
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("(%s %s)", e.Op, strings.Join(parts, " "))
}

const (
	// Arena chunk bounds: nodes, and Args/support pointers, per slab
	// allocation. Chunks start at the first size and double up to the
	// maximum (arena.NextChunk): the pipeline gives every procedure its
	// own builder, and most hold only a few dozen nodes, so full-size
	// first chunks would make each one allocate and zero tens of KiB of
	// slack.
	exprChunkFirst, exprChunk = 16, 512
	ptrChunkFirst, ptrChunk   = 64, 2048
	// tableFirst is the intern table's initial slot count.
	tableFirst = 32
	// noKid marks an unused argument slot in an internKey. No node can
	// hold this id: the pool would have to contain 2^32 nodes first.
	noKid = ^uint32(0)
)

// internKey identifies an interior node by operator and packed argument
// pool ids. The widest constructor (Gamma) has three arguments.
type internKey struct {
	op         Op
	a0, a1, a2 uint32
}

// internSlot is one open-addressed table entry; e == nil means empty.
type internSlot struct {
	key internKey
	e   *Expr
}

// Builder interns expressions. One Builder serves a whole program
// analysis; it is not safe for concurrent use.
type Builder struct {
	// Arena. cur is the chunk currently being filled; chunks records
	// every chunk ever allocated (for introspection — the *Expr handles
	// themselves keep the memory alive).
	chunks [][]Expr
	cur    []Expr
	nextID uint32

	// Open-addressed intern table for interior nodes. len(table) is a
	// power of two; grows at 3/4 load.
	table []internSlot
	used  int

	// Shared backing slab for Args and support slices: small per-node
	// slices become sub-slices of one large allocation.
	ptrSlab []*Expr

	supScratch []*Expr // computeSupport working space, reused

	params   map[*sem.Symbol]*Expr
	globals  map[*sem.GlobalVar]*Expr
	opaques  map[int64]*Expr
	consts   map[int64]*Expr
	trueE    *Expr
	falseE   *Expr
	nextAnon int64 // generator for fresh opaque identities

	maxSize   int // expression-size budget; 0 = unlimited
	truncated int // expressions degraded to opaque by the budget
}

// SetMaxSize installs an expression-size budget: any interior node
// whose node count would exceed n is replaced by a fresh opaque value
// (which evaluates to ⊥ — a sound under-approximation). n <= 0 removes
// the budget.
func (b *Builder) SetMaxSize(n int) { b.maxSize = n }

// MaxSize returns the current expression-size budget (0 = unlimited),
// so per-worker builders can inherit the primary builder's cap.
func (b *Builder) MaxSize() int { return b.maxSize }

// Truncated reports how many expressions the size budget degraded to
// opaque since the builder was created (including counts folded in via
// AddTruncated).
func (b *Builder) Truncated() int { return b.truncated }

// AddTruncated folds n more truncation events into the builder's count.
// The parallel pipeline gives each worker its own Builder (the
// hash-consing tables are not goroutine-safe); after the workers join,
// their truncation counts are summed into the primary builder so the
// degradation warning reports the whole program's count, not one
// shard's. Call only after the contributing workers have finished.
func (b *Builder) AddTruncated(n int) {
	if n > 0 {
		b.truncated += n
	}
}

// NewBuilder returns an empty interning pool.
func NewBuilder() *Builder {
	return &Builder{
		params:  make(map[*sem.Symbol]*Expr),
		globals: make(map[*sem.GlobalVar]*Expr),
		opaques: make(map[int64]*Expr),
		consts:  make(map[int64]*Expr),
	}
}

// NumExprs returns the number of nodes interned in the pool.
func (b *Builder) NumExprs() int { return int(b.nextID) }

// NumChunks returns how many arena chunks back the pool.
func (b *Builder) NumChunks() int { return len(b.chunks) }

// alloc carves the next node out of the arena. Returned memory is
// zeroed; the *Expr address is stable for the life of the Builder.
func (b *Builder) alloc() *Expr {
	if len(b.cur) == cap(b.cur) {
		b.cur = make([]Expr, 0, arena.NextChunk(cap(b.cur), exprChunkFirst, exprChunk))
		b.chunks = append(b.chunks, b.cur)
	}
	b.cur = b.cur[:len(b.cur)+1]
	return &b.cur[len(b.cur)-1]
}

// span carves an n-pointer sub-slice (capacity-clamped) out of the
// shared slab.
func (b *Builder) span(n int) []*Expr {
	if len(b.ptrSlab)+n > cap(b.ptrSlab) {
		c := arena.NextChunk(cap(b.ptrSlab), ptrChunkFirst, ptrChunk)
		if n > c {
			c = n
		}
		b.ptrSlab = make([]*Expr, 0, c)
	}
	lo := len(b.ptrSlab)
	b.ptrSlab = b.ptrSlab[:lo+n]
	return b.ptrSlab[lo : lo+n : lo+n]
}

// intern finishes a freshly arena-allocated node: assigns its pool id
// and computes the derived facts once.
func (b *Builder) intern(e *Expr) *Expr {
	e.id = b.nextID
	b.nextID++
	e.size = 1
	for _, a := range e.Args {
		e.size += a.size
		if a.opaque {
			e.opaque = true
		}
	}
	if e.Op == OpOpaque {
		e.opaque = true
	}
	e.support = b.computeSupport(e)
	return e
}

func (b *Builder) computeSupport(e *Expr) []*Expr {
	if e.Op == OpParam || e.Op == OpGlobal {
		s := b.span(1)
		s[0] = e
		return s
	}
	// A support slice is immutable once interned, so when at most one
	// child contributes leaves the child's slice is shared outright —
	// most interior nodes take this allocation-free path.
	var first []*Expr
	n := 0
	for _, a := range e.Args {
		if len(a.support) > 0 {
			if first == nil {
				first = a.support
			}
			n += len(a.support)
		}
	}
	if n == len(first) {
		return first
	}
	// Gather contributors into the reusable scratch buffer, order them
	// structurally, and dedup in place before committing to the slab.
	//
	// Order structurally, not by interning id: ids depend on which
	// Builder interned the leaf first, and the parallel pipeline builds
	// expressions in per-worker Builders. A structural order keeps the
	// support — and everything downstream of it, like the binding-graph
	// solver's evaluation order — identical between serial and parallel
	// runs. Distinct interned exprs of one builder never compare equal,
	// so duplicates are exactly the repeated pointers, adjacent after
	// the sort. Supports are tiny (a handful of leaves), so an
	// insertion sort beats sort.Slice and allocates nothing.
	sc := b.supScratch[:0]
	for _, a := range e.Args {
		sc = append(sc, a.support...)
	}
	for i := 1; i < len(sc); i++ {
		x := sc[i]
		j := i
		for j > 0 && StructCompare(sc[j-1], x) > 0 {
			sc[j] = sc[j-1]
			j--
		}
		sc[j] = x
	}
	w := 1
	for i := 1; i < len(sc); i++ {
		if sc[i] != sc[w-1] {
			sc[w] = sc[i]
			w++
		}
	}
	b.supScratch = sc
	out := b.span(w)
	copy(out, sc[:w])
	return out
}

// StructCompare totally orders expressions by structure alone,
// independent of the Builder that interned them: by operator, then leaf
// payload, then arity, then arguments recursively. Within one Builder
// it is consistent with (but coarser than — never equal for distinct
// interned exprs of the same builder, since interning is structural)
// pointer identity. Pool ids must never feed an order: they record
// interning history, which differs between per-worker builders.
func StructCompare(x, y *Expr) int {
	if x == y {
		return 0
	}
	if x.Op != y.Op {
		if x.Op < y.Op {
			return -1
		}
		return 1
	}
	cmpInt64 := func(a, b int64) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	switch x.Op {
	case OpConst, OpOpaque:
		return cmpInt64(x.K, y.K)
	case OpBool:
		switch {
		case x.B == y.B:
			return 0
		case y.B:
			return -1
		}
		return 1
	case OpParam:
		if c := cmpInt64(int64(x.Param.FormalIndex), int64(y.Param.FormalIndex)); c != 0 {
			return c
		}
		return strings.Compare(x.Param.Name, y.Param.Name)
	case OpGlobal:
		if c := strings.Compare(x.Global.Block, y.Global.Block); c != 0 {
			return c
		}
		return cmpInt64(int64(x.Global.Index), int64(y.Global.Index))
	}
	if c := cmpInt64(int64(len(x.Args)), int64(len(y.Args))); c != 0 {
		return c
	}
	for i := range x.Args {
		if c := StructCompare(x.Args[i], y.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Const returns the interned constant c.
func (b *Builder) Const(c int64) *Expr {
	if e, ok := b.consts[c]; ok {
		return e
	}
	e := b.alloc()
	e.Op = OpConst
	e.K = c
	b.intern(e)
	b.consts[c] = e
	return e
}

// Bool returns the interned boolean constant.
func (b *Builder) Bool(v bool) *Expr {
	if v {
		if b.trueE == nil {
			b.trueE = b.alloc()
			b.trueE.Op = OpBool
			b.trueE.B = true
			b.intern(b.trueE)
		}
		return b.trueE
	}
	if b.falseE == nil {
		b.falseE = b.alloc()
		b.falseE.Op = OpBool
		b.intern(b.falseE)
	}
	return b.falseE
}

// ParamLeaf returns the leaf for a formal parameter's entry value.
func (b *Builder) ParamLeaf(s *sem.Symbol) *Expr {
	if e, ok := b.params[s]; ok {
		return e
	}
	e := b.alloc()
	e.Op = OpParam
	e.Param = s
	b.intern(e)
	b.params[s] = e
	return e
}

// GlobalLeaf returns the leaf for a COMMON global's entry value.
func (b *Builder) GlobalLeaf(g *sem.GlobalVar) *Expr {
	if e, ok := b.globals[g]; ok {
		return e
	}
	e := b.alloc()
	e.Op = OpGlobal
	e.Global = g
	b.intern(e)
	b.globals[g] = e
	return e
}

// Opaque returns the opaque expression with the given identity. Two
// opaque expressions are equal iff their identities are equal.
func (b *Builder) Opaque(id int64) *Expr {
	if e, ok := b.opaques[id]; ok {
		return e
	}
	e := b.alloc()
	e.Op = OpOpaque
	e.K = id
	b.intern(e)
	b.opaques[id] = e
	return e
}

// FreshOpaque returns an opaque expression with a new identity,
// distinct from all ids passed to Opaque (fresh ids are negative).
func (b *Builder) FreshOpaque() *Expr {
	b.nextAnon--
	return b.Opaque(b.nextAnon)
}

func hashKey(k internKey) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	h = (h ^ uint32(k.op)) * prime
	h = (h ^ k.a0) * prime
	h = (h ^ k.a1) * prime
	h = (h ^ k.a2) * prime
	return h
}

// find probes the open-addressed table for an interned interior node.
func (b *Builder) find(k internKey) *Expr {
	if len(b.table) == 0 {
		return nil
	}
	mask := uint32(len(b.table) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		s := &b.table[i]
		if s.e == nil {
			return nil
		}
		if s.key == k {
			return s.e
		}
	}
}

// insert adds a fresh interior node to the table, growing it first if
// the next entry would push the load factor past 3/4.
func (b *Builder) insert(k internKey, e *Expr) {
	if 4*(b.used+1) > 3*len(b.table) {
		b.growTable()
	}
	mask := uint32(len(b.table) - 1)
	i := hashKey(k) & mask
	for b.table[i].e != nil {
		i = (i + 1) & mask
	}
	b.table[i] = internSlot{key: k, e: e}
	b.used++
}

func (b *Builder) growTable() {
	n := tableFirst
	if len(b.table) > 0 {
		n = 2 * len(b.table)
	}
	old := b.table
	b.table = make([]internSlot, n)
	mask := uint32(n - 1)
	for i := range old {
		s := old[i]
		if s.e == nil {
			continue
		}
		j := hashKey(s.key) & mask
		for b.table[j].e != nil {
			j = (j + 1) & mask
		}
		b.table[j] = s
	}
}

// overBudget applies the expression-size budget to a node about to be
// built from children totalling kidSize nodes.
func (b *Builder) overBudget(kidSize int) bool {
	if b.maxSize > 0 && 1+kidSize > b.maxSize {
		b.truncated++
		return true
	}
	return false
}

// node1, node2, node3 intern interior nodes after simplification
// decided to keep them. Fixed arities let the intern-table probe run
// BEFORE any allocation: on a hit — the common case once a program's
// expressions converge — the constructors touch only the arena-resident
// table and return the existing node.

func (b *Builder) node1(op Op, x *Expr) *Expr {
	if b.overBudget(x.size) {
		return b.FreshOpaque()
	}
	k := internKey{op: op, a0: x.id, a1: noKid, a2: noKid}
	if e := b.find(k); e != nil {
		return e
	}
	e := b.alloc()
	e.Op = op
	args := b.span(1)
	args[0] = x
	e.Args = args
	b.intern(e)
	b.insert(k, e)
	return e
}

func (b *Builder) node2(op Op, x, y *Expr) *Expr {
	if b.overBudget(x.size + y.size) {
		return b.FreshOpaque()
	}
	k := internKey{op: op, a0: x.id, a1: y.id, a2: noKid}
	if e := b.find(k); e != nil {
		return e
	}
	e := b.alloc()
	e.Op = op
	args := b.span(2)
	args[0], args[1] = x, y
	e.Args = args
	b.intern(e)
	b.insert(k, e)
	return e
}

func (b *Builder) node3(op Op, x, y, z *Expr) *Expr {
	if b.overBudget(x.size + y.size + z.size) {
		return b.FreshOpaque()
	}
	k := internKey{op: op, a0: x.id, a1: y.id, a2: z.id}
	if e := b.find(k); e != nil {
		return e
	}
	e := b.alloc()
	e.Op = op
	args := b.span(3)
	args[0], args[1], args[2] = x, y, z
	e.Args = args
	b.intern(e)
	b.insert(k, e)
	return e
}
