// Package cfg builds per-procedure control-flow graphs from analyzed
// F77s program units.
//
// The builder lowers structured statements (block IF, DO) and arbitrary
// GOTOs into a flat instruction list with explicit branches, extracts
// function calls out of expressions into compiler temporaries (fixing
// evaluation order and giving every call a CallSite), and then slices
// the flat list into basic blocks.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arena"
	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/source"
)

// Graph is the control-flow graph of one procedure.
type Graph struct {
	Proc   *sem.Procedure
	Blocks []*Block // Blocks[0] is the entry block
	Entry  *Block
	Exit   *Block // every RETURN/STOP/fall-off-END reaches here
	// Sites lists all call sites in the procedure, in instruction order.
	Sites []*CallSite
	// NumExprs bounds the expression numbers of the graph's
	// instructions: the builder numbers the nodes it synthesizes from
	// Proc.Unit.NumExprs on, so every node has 0 < ID < NumExprs.
	NumExprs int
}

// Block is a basic block: straight-line instructions plus a terminator.
type Block struct {
	ID     int
	Instrs []*Instr
	Term   Terminator
	Succs  []*Block
	Preds  []*Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// InstrKind classifies instructions.
type InstrKind int

const (
	// InstrAssign: Lhs = Rhs (Lhs is a scalar symbol), or
	// LhsArray(Subs...) = Rhs when LhsArray != nil.
	InstrAssign InstrKind = iota
	// InstrCall: a call site. For function calls, Lhs receives the
	// result; for CALL statements Lhs is nil.
	InstrCall
	// InstrRead: each target in Targets receives runtime input.
	InstrRead
	// InstrPrint: evaluates Args for output.
	InstrPrint
)

// Instr is one non-branching instruction.
type Instr struct {
	Kind InstrKind
	Pos  source.Position

	// InstrAssign / InstrCall result:
	Lhs      *sem.Symbol // scalar target (nil for array stores and CALL)
	LhsArray *sem.Symbol // array target symbol, with Subs subscripts
	Subs     []ast.Expr
	Rhs      ast.Expr // InstrAssign right-hand side

	Site *CallSite // InstrCall

	Targets []Target   // InstrRead
	Args    []ast.Expr // InstrPrint
}

// Target is a READ destination: a scalar or an array element.
type Target struct {
	Sym  *sem.Symbol
	Subs []ast.Expr // nil for scalars
}

func (in *Instr) String() string {
	switch in.Kind {
	case InstrAssign:
		if in.LhsArray != nil {
			subs := make([]string, len(in.Subs))
			for i, s := range in.Subs {
				subs[i] = ast.ExprString(s)
			}
			return fmt.Sprintf("%s(%s) = %s", in.LhsArray.Name, strings.Join(subs, ", "), ast.ExprString(in.Rhs))
		}
		return fmt.Sprintf("%s = %s", in.Lhs.Name, ast.ExprString(in.Rhs))
	case InstrCall:
		s := in.Site
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = ast.ExprString(a)
		}
		if in.Lhs != nil {
			return fmt.Sprintf("%s = %s(%s)", in.Lhs.Name, s.Callee, strings.Join(args, ", "))
		}
		return fmt.Sprintf("CALL %s(%s)", s.Callee, strings.Join(args, ", "))
	case InstrRead:
		parts := make([]string, len(in.Targets))
		for i, t := range in.Targets {
			parts[i] = t.Sym.Name
		}
		return "READ " + strings.Join(parts, ", ")
	default:
		return "PRINT"
	}
}

// CallSite is one static call (CALL statement or function reference).
type CallSite struct {
	ID     int // unique within the procedure
	Caller *sem.Procedure
	Callee string // callee name (resolved procedure)
	Args   []ast.Expr
	Pos    source.Position
	Block  *Block
	// IsFunction marks function-reference sites.
	IsFunction bool
	// Origin points back to the source AST node that produced the site:
	// an *ast.CallStmt for CALL statements or an *ast.Apply for function
	// references. Transformations (e.g. procedure cloning) use it to
	// retarget individual sites.
	Origin ast.Node
}

func (s *CallSite) String() string {
	return fmt.Sprintf("%s→%s@%d", s.Caller.Name, s.Callee, s.ID)
}

// TermKind classifies block terminators.
type TermKind int

const (
	TermJump TermKind = iota
	TermCond
	TermReturn
	TermStop
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	Cond ast.Expr // TermCond
	Pos  source.Position
	// Successor indices into Block.Succs: TermJump uses Succs[0];
	// TermCond uses Succs[0] (true) and Succs[1] (false).
}

// ---------------------------------------------------------------------
// Builder

// Build constructs the CFG for one procedure. prog supplies Apply
// resolution (array vs call).
func Build(prog *sem.Program, proc *sem.Procedure) *Graph {
	b := &builder{prog: prog, proc: proc, labelPCs: make(map[string]int), nextExpr: proc.Unit.NumExprs}
	// DATA statements initialize storage at load time. For the main
	// program (which runs exactly once, first) that is equivalent to
	// assignments at entry; for other units it is not (they may be
	// re-entered), so their DATA values are handled conservatively by
	// the interprocedural driver.
	if proc.Unit.Kind == ast.ProgramUnit {
		for _, d := range proc.Unit.Decls {
			dd, ok := d.(*ast.DataDecl)
			if !ok {
				continue
			}
			for i, name := range dd.Names {
				if i >= len(dd.Values) {
					break
				}
				s := proc.Lookup(name)
				if s == nil || s.IsArray || s.Kind == sem.SymConst {
					continue
				}
				b.emitFlat(flatOp{kind: flatInstr, pos: dd.Pos(),
					instr: b.newInstr(Instr{Kind: InstrAssign, Pos: dd.Pos(), Lhs: s, Rhs: dd.Values[i]})})
			}
		}
	}
	b.flatten(proc.Unit.Body)
	// Fall off the end of the unit = RETURN (STOP for PROGRAM units, but
	// both just reach Exit).
	b.emitFlat(flatOp{kind: flatReturn})
	return b.assemble()
}

// flatOp is one element of the flattened instruction stream.
type flatKind int

const (
	flatInstr       flatKind = iota
	flatJump                 // unconditional to label
	flatBranchFalse          // if !cond goto label
	flatBranchTrue           // if cond goto label
	flatReturn
	flatStop
	flatLabel // label definition point (no code)
)

type flatOp struct {
	kind  flatKind
	instr *Instr
	cond  ast.Expr
	label string // target (jump/branch) or defined label
	pos   source.Position
}

type builder struct {
	prog     *sem.Program
	proc     *sem.Procedure
	ops      []flatOp
	labelPCs map[string]int // label → index in ops of its flatLabel
	nextGen  int            // generator for synthesized labels
	nextExpr int            // next expression number for synthesized nodes
	sites    []*CallSite

	// instrArena and blockArena are slab chunks for Instr/Block nodes;
	// blkSlab backs the small Succs/Preds slices. All three trade
	// per-node heap allocations for chunked slab allocations with
	// stable addresses.
	instrArena []Instr
	blockArena []Block
	blkSlab    []*Block
}

// newInstr allocates an instruction from the arena.
func (b *builder) newInstr(in Instr) *Instr {
	if len(b.instrArena) == cap(b.instrArena) {
		b.instrArena = make([]Instr, 0, arena.NextChunk(cap(b.instrArena), 16, 256))
	}
	b.instrArena = append(b.instrArena, in)
	return &b.instrArena[len(b.instrArena)-1]
}

// edgeAppend appends to a Succs/Preds list, seeding empty lists with a
// capacity-2 window of the shared slab (almost every block has at most
// two successors and two predecessors; rare fan-in growth falls back to
// a normal append).
func (b *builder) edgeAppend(s []*Block, x *Block) []*Block {
	if s == nil {
		if len(b.blkSlab)+2 > cap(b.blkSlab) {
			b.blkSlab = make([]*Block, 0, arena.NextChunk(cap(b.blkSlab), 32, 512))
		}
		lo := len(b.blkSlab)
		b.blkSlab = b.blkSlab[:lo+2]
		s = b.blkSlab[lo : lo : lo+2]
	}
	return append(s, x)
}

// num hands out the next expression number for a synthesized node.
func (b *builder) num() int {
	n := b.nextExpr
	b.nextExpr++
	return n
}

func (b *builder) ident(pos source.Position, name string) *ast.Ident {
	return &ast.Ident{Position: pos, ID: b.num(), Name: name}
}

func (b *builder) intLit(pos source.Position, v int64) *ast.IntLit {
	return &ast.IntLit{Position: pos, ID: b.num(), Value: v}
}

func (b *builder) binary(pos source.Position, op ast.Op, x, y ast.Expr) *ast.Binary {
	return &ast.Binary{Position: pos, ID: b.num(), Op: op, X: x, Y: y}
}

func (b *builder) genLabel() string {
	b.nextGen++
	return fmt.Sprintf("@L%d", b.nextGen)
}

func (b *builder) emitFlat(op flatOp) { b.ops = append(b.ops, op) }

func (b *builder) defineLabel(l string) {
	b.labelPCs[l] = len(b.ops)
	b.emitFlat(flatOp{kind: flatLabel, label: l})
}

func (b *builder) flatten(stmts []ast.Stmt) {
	for _, s := range stmts {
		if l := s.Label(); l != "" {
			b.defineLabel(l)
		}
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		rhs := b.extractCalls(x.Rhs)
		in := b.newInstr(Instr{Kind: InstrAssign, Pos: x.Pos(), Rhs: rhs})
		switch lhs := x.Lhs.(type) {
		case *ast.Ident:
			in.Lhs = b.proc.Lookup(lhs.Name)
		case *ast.Apply:
			in.LhsArray = b.proc.Lookup(lhs.Name)
			in.Subs = b.extractCallsList(lhs.Args)
		}
		b.emitFlat(flatOp{kind: flatInstr, instr: in, pos: x.Pos()})
	case *ast.CallStmt:
		args := b.extractCallsList(x.Args)
		site := &CallSite{Caller: b.proc, Callee: x.Name, Args: args, Pos: x.Pos(), Origin: x}
		b.sites = append(b.sites, site)
		b.emitFlat(flatOp{kind: flatInstr, pos: x.Pos(),
			instr: b.newInstr(Instr{Kind: InstrCall, Pos: x.Pos(), Site: site})})
	case *ast.IfStmt:
		b.ifStmt(x)
	case *ast.DoStmt:
		b.doStmt(x)
	case *ast.GotoStmt:
		b.emitFlat(flatOp{kind: flatJump, label: x.Target, pos: x.Pos()})
	case *ast.ComputedGotoStmt:
		b.computedGoto(x)
	case *ast.ArithIfStmt:
		b.arithIf(x)
	case *ast.ContinueStmt:
		// No code; the label (if any) was already defined.
	case *ast.ReturnStmt:
		b.emitFlat(flatOp{kind: flatReturn, pos: x.Pos()})
	case *ast.StopStmt:
		b.emitFlat(flatOp{kind: flatStop, pos: x.Pos()})
	case *ast.ReadStmt:
		in := b.newInstr(Instr{Kind: InstrRead, Pos: x.Pos()})
		for _, t := range x.Args {
			switch tv := t.(type) {
			case *ast.Ident:
				in.Targets = append(in.Targets, Target{Sym: b.proc.Lookup(tv.Name)})
			case *ast.Apply:
				in.Targets = append(in.Targets, Target{
					Sym:  b.proc.Lookup(tv.Name),
					Subs: b.extractCallsList(tv.Args),
				})
			}
		}
		b.emitFlat(flatOp{kind: flatInstr, instr: in, pos: x.Pos()})
	case *ast.PrintStmt:
		in := b.newInstr(Instr{Kind: InstrPrint, Pos: x.Pos(), Args: b.extractCallsList(x.Args)})
		b.emitFlat(flatOp{kind: flatInstr, instr: in, pos: x.Pos()})
	}
}

func (b *builder) ifStmt(x *ast.IfStmt) {
	endLabel := b.genLabel()
	// Chain of arms: IF, ELSEIFs, ELSE.
	type arm struct {
		cond ast.Expr
		body []ast.Stmt
	}
	arms := []arm{{x.Cond, x.Then}}
	for _, ei := range x.ElseIfs {
		arms = append(arms, arm{ei.Cond, ei.Body})
	}
	for i, a := range arms {
		nextLabel := endLabel
		if i < len(arms)-1 || len(x.Else) > 0 {
			nextLabel = b.genLabel()
		}
		cond := b.extractCalls(a.cond)
		b.emitFlat(flatOp{kind: flatBranchFalse, cond: cond, label: nextLabel, pos: x.Pos()})
		b.flatten(a.body)
		if nextLabel != endLabel {
			b.emitFlat(flatOp{kind: flatJump, label: endLabel, pos: x.Pos()})
			b.defineLabel(nextLabel)
		}
	}
	if len(x.Else) > 0 {
		b.flatten(x.Else)
	}
	b.defineLabel(endLabel)
}

// doStmt lowers a DO loop:
//
//	I = from
//	@limit = to            (snapshot; F77 fixes the bound at entry)
//	@step  = step          (when the step is not a literal)
//	head:  IF (.NOT. cond) GOTO exit
//	       body            (the terminator label, if any, sits in body)
//	       I = I + step
//	       GOTO head
//	exit:
func (b *builder) doStmt(x *ast.DoStmt) {
	v := b.proc.Lookup(x.Var)
	pos := x.Pos()

	from := b.extractCalls(x.From)
	b.emitFlat(flatOp{kind: flatInstr, pos: pos,
		instr: b.newInstr(Instr{Kind: InstrAssign, Pos: pos, Lhs: v, Rhs: from})})

	// Snapshot the bound unless it is a literal.
	toExpr := b.extractCalls(x.To)
	var limitRef ast.Expr
	if lit, ok := toExpr.(*ast.IntLit); ok {
		limitRef = lit
	} else {
		limit := b.proc.NewTemp(ast.TypeInteger)
		b.emitFlat(flatOp{kind: flatInstr, pos: pos,
			instr: b.newInstr(Instr{Kind: InstrAssign, Pos: pos, Lhs: limit, Rhs: toExpr})})
		limitRef = b.ident(pos, limit.Name)
	}

	// Step: literal 1 when omitted; snapshot when not a literal.
	var stepRef ast.Expr
	stepVal, stepKnown := int64(1), true
	if x.Step != nil {
		se := b.extractCalls(x.Step)
		if lit, ok := se.(*ast.IntLit); ok {
			stepRef = lit
			stepVal = lit.Value
		} else if u, ok := se.(*ast.Unary); ok && u.Op == ast.OpNeg {
			if lit, ok := u.X.(*ast.IntLit); ok {
				stepRef = se
				stepVal = -lit.Value
			}
		}
		if stepRef == nil {
			stepKnown = false
			st := b.proc.NewTemp(ast.TypeInteger)
			b.emitFlat(flatOp{kind: flatInstr, pos: pos,
				instr: b.newInstr(Instr{Kind: InstrAssign, Pos: pos, Lhs: st, Rhs: se})})
			stepRef = b.ident(pos, st.Name)
		}
	} else {
		stepRef = b.intLit(pos, 1)
	}

	head := b.genLabel()
	exit := b.genLabel()
	b.defineLabel(head)

	vRef := b.ident(pos, v.Name)
	var cond ast.Expr
	switch {
	case stepKnown && stepVal >= 0:
		cond = b.binary(pos, ast.OpLe, vRef, limitRef)
	case stepKnown:
		cond = b.binary(pos, ast.OpGe, vRef, limitRef)
	default:
		// Runtime-signed step: (step > 0 .AND. v <= limit) .OR.
		// (step <= 0 .AND. v >= limit).
		up := b.binary(pos, ast.OpAnd,
			b.binary(pos, ast.OpGt, stepRef, b.intLit(pos, 0)),
			b.binary(pos, ast.OpLe, vRef, limitRef))
		down := b.binary(pos, ast.OpAnd,
			b.binary(pos, ast.OpLe, stepRef, b.intLit(pos, 0)),
			b.binary(pos, ast.OpGe, vRef, limitRef))
		cond = b.binary(pos, ast.OpOr, up, down)
	}
	b.emitFlat(flatOp{kind: flatBranchFalse, cond: cond, label: exit, pos: pos})

	b.flatten(x.Body)

	incr := b.binary(pos, ast.OpAdd, vRef, stepRef)
	b.emitFlat(flatOp{kind: flatInstr, pos: pos,
		instr: b.newInstr(Instr{Kind: InstrAssign, Pos: pos, Lhs: v, Rhs: incr})})
	b.emitFlat(flatOp{kind: flatJump, label: head, pos: pos})
	b.defineLabel(exit)
}

// computedGoto lowers `GOTO (l1, …, ln), e` into a temp assignment and
// a chain of equality branches; an out-of-range index falls through.
func (b *builder) computedGoto(x *ast.ComputedGotoStmt) {
	pos := x.Pos()
	idx := b.extractCalls(x.Index)
	t := b.proc.NewTemp(ast.TypeInteger)
	b.emitFlat(flatOp{kind: flatInstr, pos: pos,
		instr: b.newInstr(Instr{Kind: InstrAssign, Pos: pos, Lhs: t, Rhs: idx})})
	tRef := b.ident(pos, t.Name)
	for i, lbl := range x.Targets {
		cond := b.binary(pos, ast.OpEq, tRef, b.intLit(pos, int64(i+1)))
		b.emitFlat(flatOp{kind: flatBranchTrue, cond: cond, label: lbl, pos: pos})
	}
}

// arithIf lowers `IF (e) l1, l2, l3` into a temp assignment and two
// branches (negative, zero) with an unconditional jump for positive.
func (b *builder) arithIf(x *ast.ArithIfStmt) {
	pos := x.Pos()
	e := b.extractCalls(x.Expr)
	t := b.proc.NewTemp(b.proc.TypeOf(x.Expr))
	b.emitFlat(flatOp{kind: flatInstr, pos: pos,
		instr: b.newInstr(Instr{Kind: InstrAssign, Pos: pos, Lhs: t, Rhs: e})})
	tRef := b.ident(pos, t.Name)
	zero := b.intLit(pos, 0)
	b.emitFlat(flatOp{kind: flatBranchTrue, pos: pos, label: x.LtLabel,
		cond: b.binary(pos, ast.OpLt, tRef, zero)})
	b.emitFlat(flatOp{kind: flatBranchTrue, pos: pos, label: x.EqLabel,
		cond: b.binary(pos, ast.OpEq, tRef, zero)})
	b.emitFlat(flatOp{kind: flatJump, label: x.GtLabel, pos: pos})
}

// extractCalls rewrites an expression so that it contains no function
// calls: each user-function Apply becomes a CallSite whose result lands
// in a fresh temporary, and the expression references the temporary.
// Intrinsics and array references are left in place.
//
// Call-free trees — the overwhelmingly common case — are returned
// as-is instead of being deep-copied: downstream consumers key on node
// identity only for single-occurrence source nodes, which sharing
// preserves, and never mutate instruction expressions.
func (b *builder) extractCalls(e ast.Expr) ast.Expr {
	if e == nil || !b.hasCall(e) {
		return e
	}
	return b.extractCallsSlow(e)
}

// hasCall reports whether the tree contains a user-function call.
func (b *builder) hasCall(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Apply:
		if b.proc.ApplyKindOf(x) == sem.ApplyCall {
			return true
		}
		for _, a := range x.Args {
			if b.hasCall(a) {
				return true
			}
		}
	case *ast.Unary:
		return b.hasCall(x.X)
	case *ast.Binary:
		return b.hasCall(x.X) || b.hasCall(x.Y)
	}
	return false
}

func (b *builder) extractCallsSlow(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ast.Apply:
		args := b.extractCallsList(x.Args)
		if b.proc.ApplyKindOf(x) == sem.ApplyCall {
			callee := b.prog.Procs[x.Name]
			t := b.proc.NewTemp(resultType(callee))
			site := &CallSite{Caller: b.proc, Callee: x.Name, Args: args, Pos: x.Pos(), IsFunction: true, Origin: x}
			b.sites = append(b.sites, site)
			b.emitFlat(flatOp{kind: flatInstr, pos: x.Pos(),
				instr: b.newInstr(Instr{Kind: InstrCall, Pos: x.Pos(), Site: site, Lhs: t})})
			return b.ident(x.Pos(), t.Name)
		}
		return &ast.Apply{Position: x.Position, ID: b.num(), Name: x.Name, Args: args}
	case *ast.Unary:
		return &ast.Unary{Position: x.Position, ID: b.num(), Op: x.Op, X: b.extractCalls(x.X)}
	case *ast.Binary:
		// Note: both operands are always evaluated (no short-circuit in
		// F77s), left to right.
		return b.binary(x.Position, x.Op, b.extractCalls(x.X), b.extractCalls(x.Y))
	default:
		return e
	}
}

func (b *builder) extractCallsList(es []ast.Expr) []ast.Expr {
	changed := false
	for _, e := range es {
		if b.hasCall(e) {
			changed = true
			break
		}
	}
	if !changed {
		return es
	}
	out := make([]ast.Expr, len(es))
	for i, e := range es {
		out[i] = b.extractCalls(e)
	}
	return out
}

func resultType(p *sem.Procedure) ast.BaseType {
	if p != nil && p.Unit.Kind == ast.FunctionUnit {
		return p.Unit.Result
	}
	return ast.TypeInteger
}

// ---------------------------------------------------------------------
// Block assembly

func (b *builder) assemble() *Graph {
	g := &Graph{Proc: b.proc, NumExprs: b.nextExpr}

	// Find leaders: op 0, targets of jumps/branches, ops after
	// jumps/branches/returns/stops.
	isLeader := make([]bool, len(b.ops)+1)
	isLeader[0] = true
	for i, op := range b.ops {
		switch op.kind {
		case flatJump, flatReturn, flatStop:
			isLeader[i+1] = true
		case flatBranchFalse, flatBranchTrue:
			isLeader[i+1] = true
		}
		if op.kind == flatJump || op.kind == flatBranchFalse || op.kind == flatBranchTrue {
			if pc, ok := b.labelPCs[op.label]; ok {
				isLeader[pc] = true
			}
		}
	}

	// Allocate blocks per leader position, arena-backed and indexed by
	// a dense slice over op positions.
	blockAt := make([]*Block, len(b.ops)+1)
	newBlock := func() *Block {
		if len(b.blockArena) == cap(b.blockArena) {
			b.blockArena = make([]Block, 0, arena.NextChunk(cap(b.blockArena), 8, 128))
		}
		b.blockArena = b.blockArena[:len(b.blockArena)+1]
		blk := &b.blockArena[len(b.blockArena)-1]
		blk.ID = len(g.Blocks)
		g.Blocks = append(g.Blocks, blk)
		return blk
	}
	for i := 0; i < len(b.ops); i++ {
		if isLeader[i] {
			blockAt[i] = newBlock()
		}
	}
	g.Exit = newBlock()
	g.Exit.Term = Terminator{Kind: TermReturn}

	// blockOfLabel resolves a label to the block at (or after) its PC.
	blockOfLabel := func(label string, pos source.Position) *Block {
		pc, ok := b.labelPCs[label]
		if !ok {
			// sem already reported undefined GOTO labels; route to exit
			// to keep the graph well-formed.
			return g.Exit
		}
		for pc < len(b.ops) {
			if blk := blockAt[pc]; blk != nil {
				return blk
			}
			pc++
		}
		return g.Exit
	}

	link := func(from, to *Block) {
		from.Succs = b.edgeAppend(from.Succs, to)
		to.Preds = b.edgeAppend(to.Preds, from)
	}

	// Fill blocks.
	var cur *Block
	terminated := false
	for i, op := range b.ops {
		if blk := blockAt[i]; blk != nil {
			if cur != nil && !terminated {
				cur.Term = Terminator{Kind: TermJump}
				link(cur, blk)
			}
			cur = blk
			terminated = false
		}
		if terminated || cur == nil {
			continue // unreachable code after a jump within the block run
		}
		switch op.kind {
		case flatLabel:
			// no code
		case flatInstr:
			cur.Instrs = append(cur.Instrs, op.instr)
			if op.instr.Kind == InstrCall {
				op.instr.Site.Block = cur
			}
		case flatJump:
			cur.Term = Terminator{Kind: TermJump, Pos: op.pos}
			link(cur, blockOfLabel(op.label, op.pos))
			terminated = true
		case flatBranchFalse:
			cur.Term = Terminator{Kind: TermCond, Cond: op.cond, Pos: op.pos}
			// Succs[0] = true (fall through), Succs[1] = false (target).
			fallthroughBlk := blockAt[i+1]
			if fallthroughBlk == nil {
				fallthroughBlk = g.Exit
			}
			link(cur, fallthroughBlk)
			link(cur, blockOfLabel(op.label, op.pos))
			terminated = true
		case flatBranchTrue:
			cur.Term = Terminator{Kind: TermCond, Cond: op.cond, Pos: op.pos}
			// Succs[0] = true (target), Succs[1] = false (fall through).
			link(cur, blockOfLabel(op.label, op.pos))
			fallthroughBlk := blockAt[i+1]
			if fallthroughBlk == nil {
				fallthroughBlk = g.Exit
			}
			link(cur, fallthroughBlk)
			terminated = true
		case flatReturn:
			cur.Term = Terminator{Kind: TermReturn, Pos: op.pos}
			link(cur, g.Exit)
			terminated = true
		case flatStop:
			cur.Term = Terminator{Kind: TermStop, Pos: op.pos}
			link(cur, g.Exit)
			terminated = true
		}
	}

	g.Entry = g.Blocks[0]
	b.pruneUnreachable(g)

	// Number call sites in block order for stable IDs.
	id := 0
	for _, blk := range g.Blocks {
		for _, in := range blk.Instrs {
			if in.Kind == InstrCall {
				in.Site.ID = id
				id++
				g.Sites = append(g.Sites, in.Site)
			}
		}
	}
	return g
}

// pruneUnreachable removes blocks not reachable from the entry (keeping
// the exit block), renumbers, and fixes pred lists.
func (b *builder) pruneUnreachable(g *Graph) {
	reach := make([]bool, len(g.Blocks)) // indexed by pre-prune block ID
	var dfs func(*Block)
	dfs = func(blk *Block) {
		if reach[blk.ID] {
			return
		}
		reach[blk.ID] = true
		for _, s := range blk.Succs {
			dfs(s)
		}
	}
	dfs(g.Entry)
	reach[g.Exit.ID] = true

	kept := g.Blocks[:0]
	for _, blk := range g.Blocks {
		if reach[blk.ID] {
			kept = append(kept, blk)
		}
	}
	// Filter succ lists in place and rebuild pred lists into their
	// existing capacity before renumbering invalidates reach indexing.
	for _, blk := range kept {
		blk.Preds = blk.Preds[:0]
	}
	for _, blk := range kept {
		w := 0
		for _, s := range blk.Succs {
			if reach[s.ID] {
				blk.Succs[w] = s
				w++
				s.Preds = append(s.Preds, blk)
			}
		}
		blk.Succs = blk.Succs[:w]
	}
	for i, blk := range kept {
		blk.ID = i
	}
	g.Blocks = kept
}

// ---------------------------------------------------------------------
// Debug printing

// String renders the CFG for debugging and golden tests.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cfg %s (entry b%d, exit b%d)\n", g.Proc.Name, g.Entry.ID, g.Exit.ID)
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d:", blk.ID)
		if len(blk.Preds) > 0 {
			ids := make([]int, len(blk.Preds))
			for i, p := range blk.Preds {
				ids[i] = p.ID
			}
			sort.Ints(ids)
			fmt.Fprintf(&sb, " ; preds %v", ids)
		}
		sb.WriteByte('\n')
		for _, in := range blk.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
		switch blk.Term.Kind {
		case TermJump:
			if len(blk.Succs) > 0 {
				fmt.Fprintf(&sb, "  goto b%d\n", blk.Succs[0].ID)
			}
		case TermCond:
			fmt.Fprintf(&sb, "  if %s then b%d else b%d\n", ast.ExprString(blk.Term.Cond), blk.Succs[0].ID, blk.Succs[1].ID)
		case TermReturn:
			if blk != g.Exit {
				fmt.Fprintf(&sb, "  return\n")
			}
		case TermStop:
			fmt.Fprintf(&sb, "  stop\n")
		}
	}
	return sb.String()
}
