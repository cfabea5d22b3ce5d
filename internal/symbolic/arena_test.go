package symbolic

import (
	"fmt"
	"testing"
)

// buildDistinct interns count structurally distinct non-leaf
// expressions over the param leaf n and returns them in construction
// order.
func buildDistinct(b *Builder, n *Expr, count int) []*Expr {
	out := make([]*Expr, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, b.Binary(OpAdd, n, b.Const(int64(i+1))))
	}
	return out
}

// TestArenaGrowth pushes one builder well past several slab chunks and
// checks the properties the arena must preserve across reallocation:
// node handles stay valid (slabs grow by chaining fresh chunks, never
// by moving old ones) and interning still dedups against nodes in
// earlier chunks.
func TestArenaGrowth(t *testing.T) {
	b := NewBuilder()
	n := b.ParamLeaf(newSym("N"))
	const count = 4 * exprChunk
	exprs := buildDistinct(b, n, count)

	if got := b.NumChunks(); got < 2 {
		t.Fatalf("expected multiple arena chunks after %d interns, got %d", b.NumExprs(), got)
	}
	// count OpAdd nodes + count OpConst leaves + the shared param leaf.
	if got, want := b.NumExprs(), 2*count+1; got != want {
		t.Errorf("NumExprs = %d, want %d", got, want)
	}
	// Handles taken before growth still describe the same nodes.
	for i, e := range exprs {
		if e.Op != OpAdd {
			t.Fatalf("expr %d: op changed to %v after arena growth", i, e.Op)
		}
		if c, ok := e.Args[1].IsConst(); !ok || c != int64(i+1) {
			t.Fatalf("expr %d: rhs no longer the constant %d", i, i+1)
		}
	}
	// Re-interning the same structures must hit the intern table, not
	// allocate: pointer identity across the whole id space.
	before := b.NumExprs()
	again := buildDistinct(b, n, count)
	if b.NumExprs() != before {
		t.Errorf("re-interning allocated %d new nodes", b.NumExprs()-before)
	}
	for i := range exprs {
		if exprs[i] != again[i] {
			t.Fatalf("expr %d: re-interning returned a different node", i)
		}
	}
}

// TestInternTableCollisions drives the open-addressed intern table
// through many growth cycles (the table starts small) with keys that
// necessarily collide along the way, and checks that lookups never
// confuse two distinct structures and never duplicate an equal one.
func TestInternTableCollisions(t *testing.T) {
	b := NewBuilder()
	n := b.ParamLeaf(newSym("N"))
	type made struct {
		e     *Expr
		shape string
	}
	var all []made
	// Mix shapes so keys differ in op, in kid ids, and in arity. The
	// constants start at 2 to stay clear of the identity folds (n+0 and
	// n*1 both simplify to n, which would look like aliasing here).
	for i := 0; i < 3000; i++ {
		c := b.Const(int64(i + 2))
		var e *Expr
		var shape string
		switch i % 3 {
		case 0:
			e, shape = b.Binary(OpAdd, n, c), fmt.Sprintf("add%d", i)
		case 1:
			e, shape = b.Binary(OpMul, n, c), fmt.Sprintf("mul%d", i)
		default:
			e, shape = b.Binary(OpSub, c, n), fmt.Sprintf("sub%d", i)
		}
		all = append(all, made{e, shape})
	}
	seen := make(map[*Expr]string, len(all))
	for _, m := range all {
		if prev, dup := seen[m.e]; dup && prev != m.shape {
			t.Fatalf("collision aliased %s and %s to one node", prev, m.shape)
		}
		seen[m.e] = m.shape
	}
	// Rebuild every shape: each must intern to its original node.
	for i, m := range all {
		c := b.Const(int64(i + 2))
		var e *Expr
		switch i % 3 {
		case 0:
			e = b.Binary(OpAdd, n, c)
		case 1:
			e = b.Binary(OpMul, n, c)
		default:
			e = b.Binary(OpSub, c, n)
		}
		if e != m.e {
			t.Fatalf("%s re-interned to a different node", m.shape)
		}
	}
}

// TestStructCompareAcrossPoolLayouts is the determinism regression for
// the u32-indexed pool: two builders interning the same expressions in
// different orders assign different ids, and StructCompare must still
// order every pair identically (structural order, never pool order).
// This is what keeps per-worker builders in the parallel pipeline
// byte-compatible with the serial one.
func TestStructCompareAcrossPoolLayouts(t *testing.T) {
	build := func(b *Builder, reversed bool) []*Expr {
		n := b.ParamLeaf(newSym("N"))
		m := b.ParamLeaf(newSym("M"))
		mk := []func() *Expr{
			func() *Expr { return b.Binary(OpAdd, n, b.Const(1)) },
			func() *Expr { return b.Binary(OpAdd, m, b.Const(1)) },
			func() *Expr { return b.Binary(OpMul, n, m) },
			func() *Expr { return b.Binary(OpSub, b.Const(7), n) },
			func() *Expr { return b.Binary(OpDiv, m, b.Const(2)) },
			func() *Expr { return b.Gamma(b.Binary(OpLt, n, m), n, m) },
			func() *Expr { return b.Const(42) },
			func() *Expr { return n },
		}
		out := make([]*Expr, len(mk))
		if reversed {
			for i := len(mk) - 1; i >= 0; i-- {
				out[i] = mk[i]()
			}
		} else {
			for i := range mk {
				out[i] = mk[i]()
			}
		}
		return out
	}
	fwd := build(NewBuilder(), false)
	rev := build(NewBuilder(), true)
	for i := range fwd {
		for j := range fwd {
			got, want := StructCompare(rev[i], rev[j]), StructCompare(fwd[i], fwd[j])
			if got != want {
				t.Errorf("compare(%d,%d): reversed layout gives %d, forward gives %d",
					i, j, got, want)
			}
		}
	}
}

// FuzzStructCompareOrder generalizes the pool-layout regression: an
// arbitrary byte string picks a set of expressions, which two builders
// intern in opposite orders. The comparison matrix must be
// layout-independent and a strict weak order (antisymmetric, and zero
// only for the same structure).
func FuzzStructCompareOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{9, 9, 9, 1, 200, 3, 77})
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			t.Skip()
		}
		build := func(reversed bool) []*Expr {
			b := NewBuilder()
			n := b.ParamLeaf(newSym("N"))
			mk := make([]func() *Expr, len(data))
			for i := range data {
				c := int64(data[i])
				switch data[i] % 5 {
				case 0:
					mk[i] = func() *Expr { return b.Const(c) }
				case 1:
					mk[i] = func() *Expr { return b.Binary(OpAdd, n, b.Const(c)) }
				case 2:
					mk[i] = func() *Expr { return b.Binary(OpMul, b.Const(c), n) }
				case 3:
					mk[i] = func() *Expr { return b.Binary(OpSub, n, b.Const(c)) }
				default:
					mk[i] = func() *Expr { return b.Gamma(b.Binary(OpLt, n, b.Const(c)), n, b.Const(c)) }
				}
			}
			out := make([]*Expr, len(mk))
			if reversed {
				for i := len(mk) - 1; i >= 0; i-- {
					out[i] = mk[i]()
				}
			} else {
				for i := range mk {
					out[i] = mk[i]()
				}
			}
			return out
		}
		fwd := build(false)
		rev := build(true)
		for i := range fwd {
			for j := range fwd {
				got, want := StructCompare(rev[i], rev[j]), StructCompare(fwd[i], fwd[j])
				if got != want {
					t.Fatalf("compare(%d,%d): layouts disagree (%d vs %d)", i, j, got, want)
				}
				if back := StructCompare(fwd[j], fwd[i]); back != -want {
					t.Fatalf("compare(%d,%d): not antisymmetric (%d vs %d)", i, j, want, back)
				}
				if (want == 0) != (fwd[i] == fwd[j]) {
					t.Fatalf("compare(%d,%d)=0 must coincide with interned identity", i, j)
				}
			}
		}
	})
}

// TestSmallBuilderKeepsOneSmallChunk: a builder holding a few nodes —
// the common per-procedure case — allocates one first-size node chunk
// and one first-size pointer chunk, not full-size ones.
func TestSmallBuilderKeepsOneSmallChunk(t *testing.T) {
	b := NewBuilder()
	n := b.ParamLeaf(newSym("N"))
	buildDistinct(b, n, 3)
	if got := b.NumExprs(); got != 7 {
		t.Fatalf("NumExprs = %d, want 7", got)
	}
	if got := b.NumChunks(); got != 1 {
		t.Fatalf("NumChunks = %d, want 1", got)
	}
	if got := cap(b.chunks[0]); got != exprChunkFirst {
		t.Errorf("node chunk holds %d nodes, want %d", got, exprChunkFirst)
	}
	if got := cap(b.ptrSlab); got != ptrChunkFirst {
		t.Errorf("pointer chunk holds %d pointers, want %d", got, ptrChunkFirst)
	}
	if got := len(b.table); got != tableFirst {
		t.Errorf("intern table has %d slots, want %d", got, tableFirst)
	}
}
