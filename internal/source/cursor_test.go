package source_test

import (
	"math/rand"
	"testing"

	"repro/internal/source"
	"repro/internal/suite"
)

// TestCursorMatchesPos requires Cursor.Pos to equal File.Pos for every
// offset of the suite programs, one past the end and out-of-range
// offsets included, visited in ascending, descending and random order.
func TestCursorMatchesPos(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, sp := range suite.Programs() {
		f := source.NewFile(sp.Name+".f", suite.Source(sp))
		n := len(f.Content)
		asc := make([]int, 0, n+3)
		for off := -1; off <= n+1; off++ {
			asc = append(asc, off)
		}
		desc := make([]int, len(asc))
		for i, off := range asc {
			desc[len(asc)-1-i] = off
		}
		random := r.Perm(len(asc))
		for i := range random {
			random[i]--
		}
		for _, order := range []struct {
			name string
			offs []int
		}{{"ascending", asc}, {"descending", desc}, {"random", random}} {
			c := f.Cursor()
			for _, off := range order.offs {
				if got, want := c.Pos(off), f.Pos(off); got != want {
					t.Fatalf("%s, %s order: offset %d: cursor %+v, Pos %+v", sp.Name, order.name, off, got, want)
				}
			}
		}
	}
}
