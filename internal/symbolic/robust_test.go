package symbolic

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/lattice"
)

func TestFromASTOpUnmappedIsInvalid(t *testing.T) {
	if op := FromASTOp(ast.Op(255)); op != OpInvalid {
		t.Fatalf("FromASTOp(bogus) = %v, want OpInvalid", op)
	}
}

func TestBinaryInvalidOpDegradesToOpaque(t *testing.T) {
	b := NewBuilder()
	e := b.Binary(OpInvalid, b.Const(1), b.Const(2))
	if !e.HasOpaque() {
		t.Fatalf("Binary(OpInvalid, ...) = %s, want an opaque expression", e)
	}
	if v := Eval(e, func(*Expr) lattice.Value { return lattice.TopValue() }); !v.IsBottom() {
		t.Errorf("invalid-op expression must evaluate to ⊥, got %s", v)
	}
}

func TestExprSize(t *testing.T) {
	b := NewBuilder()
	x := b.FreshOpaque()
	y := b.FreshOpaque()
	if got := x.Size(); got != 1 {
		t.Errorf("leaf size = %d, want 1", got)
	}
	sum := b.Binary(OpAdd, x, y)
	if got := sum.Size(); got != 3 {
		t.Errorf("(+ x y) size = %d, want 3", got)
	}
	nested := b.Binary(OpMul, sum, sum)
	if got := nested.Size(); got != 7 {
		t.Errorf("(* (+ x y) (+ x y)) size = %d, want 7", got)
	}
}

func TestSizeBudgetTruncatesToOpaque(t *testing.T) {
	b := NewBuilder()
	b.SetMaxSize(5)
	x, y := b.FreshOpaque(), b.FreshOpaque()
	small := b.Binary(OpAdd, x, y) // size 3: kept
	if small.Op != OpAdd {
		t.Fatalf("under-budget expression truncated: %s", small)
	}
	big := b.Binary(OpMul, small, small) // size 7 > 5: degraded
	if big.Op != OpOpaque {
		t.Fatalf("over-budget expression kept: %s (size %d)", big, big.Size())
	}
	if b.Truncated() != 1 {
		t.Errorf("Truncated() = %d, want 1", b.Truncated())
	}
	// Constant folding happens before node construction and must be
	// unaffected by the budget.
	if c, ok := b.Binary(OpAdd, b.Const(2), b.Const(3)).IsConst(); !ok || c != 5 {
		t.Error("constant folding must bypass the size budget")
	}
}
