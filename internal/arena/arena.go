// Package arena holds the chunk-growth policy shared by the slab
// allocators of the per-procedure builders in packages cfg, ssa and
// symbolic.
package arena

// NextChunk sizes the next slab chunk for a builder arena: first on an
// empty arena, then doubling the previous chunk up to max. Builders
// are per-procedure and most procedures are small, so starting small
// matters: a finished structure pins every chunk its nodes live in (an
// incremental cache retains CFGs long after the builder is gone), and
// fixed large chunks would make tiny procedures allocate, zero and
// retain mostly slack. Doubling keeps the chunk count — and so the
// allocation count — logarithmic in procedure size.
func NextChunk(cur, first, max int) int {
	if cur == 0 {
		return first
	}
	if n := 2 * cur; n < max {
		return n
	}
	return max
}
